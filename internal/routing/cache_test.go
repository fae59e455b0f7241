package routing

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
)

// TestPathCache ports the old graph.KSPCache contract: prefixes extend
// instead of recomputing, and per-pair accounting works.
func TestPathCache(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomTopology(rng, 8, 0.5)
	cache := NewPathCache(g)
	if cache.Graph() != g {
		t.Fatal("cache must report its graph")
	}
	p1 := cache.Paths(0, 3, 2)
	if len(p1) != 2 {
		t.Fatalf("cache returned %d paths", len(p1))
	}
	if cache.Generated(0, 3) < 2 {
		t.Fatal("cache should have generated at least 2 paths")
	}
	if cache.Generated(3, 0) != 0 {
		t.Fatal("unvisited pair should have no cached paths")
	}
	p2 := cache.Paths(0, 3, 3)
	if len(p2) < len(p1) {
		t.Fatalf("cache grow returned %d paths", len(p2))
	}
	for i := range p1 {
		if !p1[i].Equal(p2[i]) {
			t.Fatal("cache must extend, not recompute, prefixes")
		}
	}
	if sp, ok := cache.ShortestPath(0, 3); !ok || !sp.Equal(p1[0]) {
		t.Fatal("ShortestPath must be the first enumerated path")
	}
}

// TestPathCacheConcurrent hammers one cache from many goroutines; run
// under -race this is the regression test for the per-pair locking.
func TestPathCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomTopology(rng, 12, 0.4)
	cache := NewPathCache(g)
	want := cache.Paths(0, 11, 4)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				src := graph.NodeID((w + iter) % g.NumNodes())
				dst := graph.NodeID((w * 7) % g.NumNodes())
				cache.Paths(src, dst, 1+iter%5)
				got := cache.Paths(0, 11, 4)
				if len(got) != len(want) {
					errs <- "concurrent Paths changed the result length"
					return
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						errs <- "concurrent Paths changed path contents"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSolverCacheSharesByFingerprint: two builds of the same topology get
// one PathCache; a different topology gets its own.
func TestSolverCacheSharesByFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g1 := randomTopology(rng, 10, 0.3)
	rng2 := rand.New(rand.NewSource(31))
	g2 := randomTopology(rng2, 10, 0.3) // identical rebuild, new pointer
	rng3 := rand.New(rand.NewSource(32))
	g3 := randomTopology(rng3, 10, 0.3)

	sc := NewSolverCache()
	if sc.ForGraph(g1) != sc.ForGraph(g2) {
		t.Fatal("identical topologies must share one PathCache")
	}
	if sc.ForGraph(g1) == sc.ForGraph(g3) {
		t.Fatal("different topologies must not share a PathCache")
	}
	if sc.ForGraph(g1) != sc.ForGraph(g1) {
		t.Fatal("repeat lookups must be stable")
	}
}

// TestSolverCachePlaceMatchesDirect: placing through the cache binds the
// cacheable schemes without changing their results, and leaves an
// explicitly configured cache alone.
func TestSolverCachePlaceMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomTopology(rng, 10, 0.3)
	m := randomMatrix(rng, g, 12, 3)
	sc := NewSolverCache()
	for _, s := range []Scheme{SP{}, LatencyOpt{}, MinMax{}, MinMax{K: 5}, B4{}} {
		direct, err := s.Place(g, m)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := sc.Place(s, g, m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(direct.LatencyStretch()-cached.LatencyStretch()) > 1e-12 ||
			math.Abs(direct.MaxUtilization()-cached.MaxUtilization()) > 1e-12 {
			t.Fatalf("%s: cached placement differs from direct", s.Name())
		}
	}
	own := NewPathCache(g)
	bound := (LatencyOpt{Cache: own}).WithPathCache(sc.ForGraph(g)).(LatencyOpt)
	if bound.Cache != own {
		t.Fatal("an explicitly configured cache must win over injection")
	}
}

// TestWarmCacheSameResult: sharing a KSP cache across runs is purely a
// performance optimization — the placement must be bit-identical to a
// cold-cache run.
func TestWarmCacheSameResult(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		g := randomTopology(rng, 10, 0.3)
		m := randomMatrix(rng, g, 15, 4)

		cold, err := (LatencyOpt{}).Place(g, m)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewPathCache(g)
		if _, err := (LatencyOpt{Cache: cache}).Place(g, m); err != nil {
			t.Fatal(err)
		}
		warm, err := (LatencyOpt{Cache: cache}).Place(g, m)
		if err != nil {
			t.Fatal(err)
		}

		if math.Abs(cold.LatencyStretch()-warm.LatencyStretch()) > 1e-9 {
			t.Fatalf("trial %d: stretch differs cold %v vs warm %v",
				trial, cold.LatencyStretch(), warm.LatencyStretch())
		}
		cu, wu := cold.Utilizations(), warm.Utilizations()
		for i := range cu {
			if math.Abs(cu[i]-wu[i]) > 1e-9 {
				t.Fatalf("trial %d: link %d utilization differs: %v vs %v",
					trial, i, cu[i], wu[i])
			}
		}
	}
}

// TestDeterministicPlacements: the same inputs always produce the same
// placement (all tie-breaks are deterministic).
func TestDeterministicPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomTopology(rng, 12, 0.25)
	m := randomMatrix(rng, g, 20, 4)
	for _, s := range []Scheme{SP{}, B4{}, LatencyOpt{}, MinMax{}, MinMax{K: 5}} {
		a, err := s.Place(g, m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Place(g, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Allocs {
			if len(a.Allocs[i]) != len(b.Allocs[i]) {
				t.Fatalf("%s: aggregate %d alloc count differs", s.Name(), i)
			}
			for j := range a.Allocs[i] {
				if !a.Allocs[i][j].Path.Equal(b.Allocs[i][j].Path) ||
					math.Abs(a.Allocs[i][j].Fraction-b.Allocs[i][j].Fraction) > 1e-12 {
					t.Fatalf("%s: aggregate %d alloc %d differs", s.Name(), i, j)
				}
			}
		}
	}
}

// distinctTopology returns a topology no other index shares: the ring's
// first link delay encodes i.
func distinctTopology(i int) *graph.Graph {
	b := graph.NewBuilder("lru")
	ids := make([]graph.NodeID, 5)
	for j := range ids {
		ids[j] = b.AddNode(string(rune('a'+j)), geo.Point{})
	}
	for j := range ids {
		delay := 0.001
		if j == 0 {
			delay += float64(i) * 1e-6
		}
		b.AddBiLink(ids[j], ids[(j+1)%len(ids)], 10e9, delay)
	}
	return b.MustBuild()
}

func (s *SolverCache) retained() int { return s.byFP.Len() }

// TestSolverCacheIsBounded: the cache retains at most solverCacheCapacity
// topologies, evicts the least recently used one, and an evicted
// PathCache keeps answering for whoever still holds it.
func TestSolverCacheIsBounded(t *testing.T) {
	sc := NewSolverCache()
	graphs := make([]*graph.Graph, solverCacheCapacity+5)
	for i := range graphs {
		graphs[i] = distinctTopology(i)
	}
	held := make([]*PathCache, len(graphs))
	for i := 0; i < solverCacheCapacity; i++ {
		held[i] = sc.ForGraph(graphs[i])
	}
	want := held[1].Paths(0, 2, 2) // warm the cache that will be evicted first
	if len(want) != 2 {
		t.Fatalf("ring pair has %d paths, want 2", len(want))
	}

	// Touch topology 0 so that topology 1 is the least recently used.
	if sc.ForGraph(graphs[0]) != held[0] {
		t.Fatal("a retained topology must keep its PathCache")
	}
	for i := solverCacheCapacity; i < len(graphs); i++ {
		held[i] = sc.ForGraph(graphs[i])
		if n := sc.retained(); n > solverCacheCapacity {
			t.Fatalf("cache retains %d topologies, capacity %d", n, solverCacheCapacity)
		}
	}
	if sc.ForGraph(graphs[0]) != held[0] {
		t.Fatal("the just-used topology must survive eviction")
	}
	last := len(graphs) - 1
	if sc.ForGraph(graphs[last]) != held[last] {
		t.Fatal("the newest topology must be retained")
	}

	// Topology 1 was evicted: the cache a solver already holds still
	// answers (and extends), and a new ForGraph starts a fresh one that
	// enumerates the same paths.
	got := held[1].Paths(0, 2, 3)
	if len(got) != 2 || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
		t.Fatal("an evicted PathCache must keep answering its holder")
	}
	fresh := sc.ForGraph(graphs[1])
	if fresh == held[1] {
		t.Fatal("topology 1 should have been evicted")
	}
	again := fresh.Paths(0, 2, 2)
	if len(again) != 2 || !again[0].Equal(want[0]) || !again[1].Equal(want[1]) {
		t.Fatal("a re-created PathCache must enumerate the same paths")
	}
}

// TestSolverCacheFreshGraphPerCall: a caller that rebuilds its graph on
// every request (backend.Local.place does, via sweep.ResolveNet) keeps
// hitting one retained PathCache; nothing accumulates per call.
func TestSolverCacheFreshGraphPerCall(t *testing.T) {
	sc := NewSolverCache()
	first := sc.ForGraph(distinctTopology(7))
	for i := 0; i < 10*solverCacheCapacity; i++ {
		if sc.ForGraph(distinctTopology(7)) != first {
			t.Fatal("separately built copies of one topology must share a PathCache")
		}
	}
	if n := sc.retained(); n != 1 {
		t.Fatalf("cache retains %d topologies after one-topology traffic, want 1", n)
	}
	if first.Graph().Fingerprint() != distinctTopology(7).Fingerprint() {
		t.Fatal("memoized fingerprint must equal a fresh build's")
	}
}

// TestSolverCacheConcurrent drives ForGraph over more topologies than fit
// from many goroutines; under -race this pins the LRU's locking.
func TestSolverCacheConcurrent(t *testing.T) {
	sc := NewSolverCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*solverCacheCapacity; i++ {
				g := distinctTopology((w*5 + i) % (2 * solverCacheCapacity))
				if ps := sc.ForGraph(g).Paths(0, 2, 2); len(ps) != 2 {
					t.Errorf("got %d paths, want 2", len(ps))
				}
			}
		}(w)
	}
	wg.Wait()
	if n := sc.retained(); n > solverCacheCapacity {
		t.Fatalf("cache retains %d topologies, capacity %d", n, solverCacheCapacity)
	}
}
