package routing_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lowlat/internal/dynamics"
	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/tm"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

// fracEps mirrors the unexported routing constant the reference needs.
const fracEps = 1e-7

// refLatencyStretch is Placement.LatencyStretch as it was before a
// placement carried its baseline: one g.ShortestPath per aggregate.
func refLatencyStretch(p *routing.Placement) float64 {
	num, den := 0.0, 0.0
	for i, allocs := range p.Allocs {
		agg := p.TM.Aggregates[i]
		sp, ok := p.G.ShortestPath(agg.Src, agg.Dst, nil, nil)
		if !ok {
			continue
		}
		for _, a := range allocs {
			if a.Fraction < fracEps {
				continue
			}
			num += float64(agg.Volume * a.Fraction * a.Path.Delay)
			den += float64(agg.Volume * a.Fraction * sp.Delay)
		}
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// refMaxStretch is the old per-aggregate-Dijkstra Placement.MaxStretch.
func refMaxStretch(p *routing.Placement) float64 {
	maxS := 1.0
	for i, allocs := range p.Allocs {
		agg := p.TM.Aggregates[i]
		sp, ok := p.G.ShortestPath(agg.Src, agg.Dst, nil, nil)
		if !ok || sp.Delay <= 0 {
			continue
		}
		for _, a := range allocs {
			if a.Fraction < fracEps {
				continue
			}
			if s := a.Path.Delay / sp.Delay; s > maxS {
				maxS = s
			}
		}
	}
	return maxS
}

func checkStretch(t *testing.T, what string, p *routing.Placement) {
	t.Helper()
	if got, want := p.LatencyStretch(), refLatencyStretch(p); got != want {
		t.Fatalf("%s: LatencyStretch %v, reference %v", what, got, want)
	}
	if got, want := p.MaxStretch(), refMaxStretch(p); got != want {
		t.Fatalf("%s: MaxStretch %v, reference %v", what, got, want)
	}
}

// diffTopology is a ring with random chords; delays come from a small set
// (many equal-cost paths) and, when zeroLink is set, nodes 0 and 1 are
// joined at zero delay.
func diffTopology(rng *rand.Rand, n int, zeroLink bool) *graph.Graph {
	delays := []float64{0.001, 0.002, 0.0035}
	b := graph.NewBuilder(fmt.Sprintf("diff-%d", n))
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = b.AddNode(fmt.Sprintf("n%d", i), geo.Point{})
	}
	for i := 0; i < n; i++ {
		d := delays[rng.Intn(len(delays))]
		if zeroLink && i == 0 {
			d = 0
		}
		b.AddBiLink(ids[i], ids[(i+1)%n], 10e9, d)
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if rng.Float64() < 0.25 && !(i == 0 && j == n-1) {
				b.AddBiLink(ids[i], ids[j], 10e9, delays[rng.Intn(len(delays))])
			}
		}
	}
	return b.MustBuild()
}

func diffMatrix(rng *rand.Rand, g *graph.Graph, pairs int, skip func(src, dst graph.NodeID) bool) *tm.Matrix {
	seen := map[[2]graph.NodeID]bool{}
	var aggs []tm.Aggregate
	for len(aggs) < pairs {
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		if src == dst || seen[[2]graph.NodeID{src, dst}] || (skip != nil && skip(src, dst)) {
			continue
		}
		seen[[2]graph.NodeID{src, dst}] = true
		gbps := 0.5 + float64(3*rng.Float64())
		aggs = append(aggs, tm.Aggregate{Src: src, Dst: dst, Volume: gbps * 1e9, Flows: int(gbps * 1000)})
	}
	return tm.New(aggs)
}

// TestStretchMatchesPerAggregateDijkstra: for placements built by every
// named scheme — directly, through a SolverCache, and on a degraded graph
// — the stretch metrics equal (==) the old per-aggregate shortest-path
// computation.
func TestStretchMatchesPerAggregateDijkstra(t *testing.T) {
	placed := make(map[string]int)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := diffTopology(rng, 7+rng.Intn(6), seed%2 == 0)
		// The LP schemes divide by each aggregate's shortest delay, so the
		// zero-delay pair is left to the hand-built placements below.
		m := diffMatrix(rng, g, 12, func(src, dst graph.NodeID) bool {
			sp, _ := g.ShortestPath(src, dst, nil, nil)
			return sp.Delay == 0
		})
		failures := dynamics.SingleLinkFailures(g)
		degraded := dynamics.Degrade(g, failures[rng.Intn(len(failures))])
		sc := routing.NewSolverCache()
		for _, name := range routing.SchemeNames() {
			for _, headroom := range []float64{0, 0.1} {
				scheme, err := routing.ByName(name, headroom)
				if err != nil {
					t.Fatal(err)
				}
				for _, on := range []*graph.Graph{g, degraded} {
					what := fmt.Sprintf("seed %d %s hr %g on %s", seed, name, headroom, on.Name())
					direct, err := scheme.Place(on, m)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					checkStretch(t, what, direct)
					cached, err := sc.Place(scheme, on, m)
					if err != nil {
						t.Fatalf("%s (cached): %v", what, err)
					}
					checkStretch(t, what+" (cached)", cached)
					if direct.LatencyStretch() != cached.LatencyStretch() {
						t.Fatalf("%s: cached and direct placements differ", what)
					}
					placed[name]++
				}
			}
		}
	}
	for _, name := range routing.SchemeNames() {
		if placed[name] == 0 {
			t.Fatalf("scheme %s was never exercised", name)
		}
	}
}

// TestStretchSkipRules builds placements by hand (nothing pre-fills their
// baseline, so each query computes it from per-source trees) on a graph
// with an isolated node and a zero-delay link, covering every skip rule:
// unreachable pair, zero shortest delay, unplaced volume, src == dst.
func TestStretchSkipRules(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := diffTopology(rng, 9, true)
	dead := graph.NodeID(4)
	g := dynamics.Degrade(base, dynamics.Failure{Name: "node n4", FailedNodes: []graph.NodeID{dead}})

	m := tm.New([]tm.Aggregate{
		{Src: 0, Dst: 1, Volume: 2e9, Flows: 2000}, // zero-delay shortest path
		{Src: 0, Dst: 6, Volume: 1e9, Flows: 1000},
		{Src: 2, Dst: dead, Volume: 1e9, Flows: 1000}, // unreachable
		{Src: dead, Dst: 7, Volume: 3e9, Flows: 3000}, // unreachable
		{Src: 7, Dst: 2, Volume: 1e9, Flows: 1000},
		{Src: 3, Dst: 3, Volume: 1e9, Flows: 1000}, // degenerate
		{Src: 0, Dst: 8, Volume: 1e9, Flows: 1000},
	})
	build := func() *routing.Placement {
		p := routing.NewPlacement(g, m)
		for i, a := range m.Aggregates {
			ps := graph.NewKSP(g, a.Src, a.Dst, nil).First(3)
			switch len(ps) {
			case 0:
				// Unreachable or degenerate: leave a bogus allocation the
				// metrics must ignore (or weigh at zero baseline delay).
				p.Allocs[i] = []routing.PathAlloc{{Path: graph.Path{Delay: 0.5}, Fraction: 1}}
			case 1:
				p.Allocs[i] = []routing.PathAlloc{{Path: ps[0], Fraction: 1}}
			default:
				p.Allocs[i] = []routing.PathAlloc{{Path: ps[0], Fraction: 0.25}, {Path: ps[len(ps)-1], Fraction: 0.75}}
			}
		}
		return p
	}

	p := build()
	checkStretch(t, "hand-built", p)
	if s := p.MaxStretch(); math.IsInf(s, 1) || s <= 1 {
		t.Fatalf("MaxStretch = %v, want a finite stretch above 1", s)
	}

	// A by-value copy shares the baseline and still agrees.
	cp := *p
	checkStretch(t, "copy", &cp)

	// A hand-built placement's on-demand baseline writes nothing, so
	// concurrent stretch queries are safe.
	r := build()
	want := refLatencyStretch(r)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := r.LatencyStretch(); got != want {
				t.Errorf("concurrent LatencyStretch %v, want %v", got, want)
			}
			if got, want := r.MaxStretch(), refMaxStretch(r); got != want {
				t.Errorf("concurrent MaxStretch %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestSolverCacheHoldsTheZoo pins the capacity to the repo's largest
// working set: figure drivers calibrate every zoo network and then solve
// scheme-outer, network-inner on one SolverCache, so a second pass over
// the whole zoo must find every topology's PathCache still retained.
func TestSolverCacheHoldsTheZoo(t *testing.T) {
	sc := routing.NewSolverCache()
	zoo := topo.Zoo()
	first := make([]*routing.PathCache, len(zoo))
	for i, e := range zoo {
		first[i] = sc.ForGraph(e.Build())
	}
	for i, e := range zoo {
		if sc.ForGraph(e.Build()) != first[i] {
			t.Fatalf("%s was evicted within one pass over the zoo", e.Name)
		}
	}
}

// TestB4IsDeterministic is the regression test for B4 collecting its
// allocations by ranging over a map: on a ring both ways round have equal
// delay, so the two paths of an aggregate landed in either order and the
// stored stretch differed in its last bit about one run in ten.
func TestB4IsDeterministic(t *testing.T) {
	e, ok := topo.ByName("ring-16")
	if !ok {
		t.Fatal("ring-16 missing from the zoo")
	}
	g := e.Build()
	// Few matrices split an aggregate over both ways round; this seed's
	// does (found by scanning: 6 of 40 runs differed before the fix).
	res, err := tmgen.Generate(g, tmgen.Config{Seed: 7000361})
	if err != nil {
		t.Fatal(err)
	}
	scheme := routing.B4{}
	key := store.KeyFor(g, res.Matrix, scheme)
	distinct := make(map[string]int)
	for i := 0; i < 200; i++ {
		p, err := scheme.Place(g, res.Matrix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := store.MarshalResult(store.Result{Key: key, Metrics: store.MetricsOf(p)})
		if err != nil {
			t.Fatal(err)
		}
		distinct[string(b)]++
	}
	if len(distinct) != 1 {
		t.Fatalf("200 B4 placements of one matrix gave %d distinct results: %v", len(distinct), distinct)
	}
}
