package core

import (
	"math"
	"testing"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/mux"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
	"lowlat/internal/topo"
	"lowlat/internal/trace"
)

// twoPathGraph: direct 10ms route plus a 14ms detour, both 10G.
func twoPathGraph() *graph.Graph {
	b := graph.NewBuilder("twopath")
	a := b.AddNode("a", geo.Point{})
	mid := b.AddNode("m", geo.Point{})
	z := b.AddNode("z", geo.Point{})
	b.AddBiLink(a, z, 10e9, 0.010)
	b.AddBiLink(a, mid, 10e9, 0.007)
	b.AddBiLink(mid, z, 10e9, 0.007)
	return b.MustBuild()
}

func steadySeries(bps float64, bins int) []float64 {
	s := make([]float64, bins)
	for i := range s {
		s[i] = bps
	}
	return s
}

func TestControllerSteadyTraffic(t *testing.T) {
	g := twoPathGraph()
	c := NewController(g, Config{})
	inputs := []AggregateInput{
		{Src: 0, Dst: 2, Flows: 100, Series: steadySeries(4e9, 600)},
	}
	res, err := c.Optimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if res.MuxRounds != 1 {
		t.Fatalf("steady traffic should pass in one round, took %d", res.MuxRounds)
	}
	if len(res.UnresolvedLinks) != 0 {
		t.Fatalf("unresolved links: %v", res.UnresolvedLinks)
	}
	// Demand = Algorithm 1's first prediction = 1.1x the measured mean.
	if math.Abs(res.Demands[0]-4.4e9) > 1e6 {
		t.Fatalf("demand = %v, want 4.4e9", res.Demands[0])
	}
	// All on the shortest path: stretch exactly 1.
	if s := res.Placement.LatencyStretch(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("stretch = %v", s)
	}
	if err := res.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestControllerScalesUpBurstyAggregates(t *testing.T) {
	// Two sources funnel through hub h to z over a 10G direct link, with
	// a 10G detour available: s1 carries smooth traffic, s2 bursty
	// traffic whose peaks overflow the shared direct link. The
	// controller must scale up the offenders until the placement
	// separates them, converging with no unresolved links.
	b := graph.NewBuilder("funnel")
	s1 := b.AddNode("s1", geo.Point{})
	s2 := b.AddNode("s2", geo.Point{})
	h := b.AddNode("h", geo.Point{})
	x := b.AddNode("x", geo.Point{})
	z := b.AddNode("z", geo.Point{})
	b.AddBiLink(s1, h, 100e9, 0.001)
	b.AddBiLink(s2, h, 100e9, 0.001)
	b.AddBiLink(h, z, 10e9, 0.010)
	b.AddBiLink(h, x, 10e9, 0.007)
	b.AddBiLink(x, z, 10e9, 0.007)
	g := b.MustBuild()
	c := NewController(g, Config{})

	smooth := steadySeries(4.5e9, 600)
	bursty := make([]float64, 600)
	for i := range bursty {
		bursty[i] = 3e9
		if i%10 < 3 {
			bursty[i] = 8e9 // 30% of bins burst to 8G
		}
	}
	inputs := []AggregateInput{
		{Src: s1, Dst: z, Flows: 10, Series: smooth},
		{Src: s2, Dst: z, Flows: 10, Series: bursty},
	}
	res, err := c.Optimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnresolvedLinks) != 0 {
		t.Fatalf("controller did not converge: %v", res.UnresolvedLinks)
	}
	if res.MuxRounds < 2 {
		t.Fatalf("expected at least one scale-up round, got %d", res.MuxRounds)
	}
	scaled := false
	for _, m := range res.Multipliers {
		if m > 1 {
			scaled = true
		}
	}
	if !scaled {
		t.Fatal("no aggregate was scaled up despite failing multiplexing")
	}
}

func TestControllerPredictorPersistsAcrossCycles(t *testing.T) {
	g := twoPathGraph()
	c := NewController(g, Config{})
	in := []AggregateInput{{Src: 0, Dst: 2, Flows: 1, Series: steadySeries(2e9, 600)}}

	r1, err := c.Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	// Second cycle with lower traffic: Algorithm 1 decays 2%, it does
	// not jump straight down to 1.1x the new mean.
	in2 := []AggregateInput{{Src: 0, Dst: 2, Flows: 1, Series: steadySeries(1e9, 600)}}
	r2, err := c.Optimize(in2)
	if err != nil {
		t.Fatal(err)
	}
	want := r1.Demands[0] * 0.98
	if math.Abs(r2.Demands[0]-want) > 1e6 {
		t.Fatalf("second-cycle demand = %v, want decayed %v", r2.Demands[0], want)
	}
}

func TestControllerWarmCacheIsFaster(t *testing.T) {
	g := topo.GTSLike()
	c := NewController(g, Config{})

	var inputs []AggregateInput
	seed := int64(0)
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if s == d {
				continue
			}
			seed++
			inputs = append(inputs, AggregateInput{
				Src: graph.NodeID(s), Dst: graph.NodeID(d), Flows: 10,
				Series: trace.AggregateSeries(seed, 60, 40e6, 0.2, 0.5),
			})
		}
	}
	cold, err := c.Optimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Optimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.UnresolvedLinks) != 0 || len(warm.UnresolvedLinks) != 0 {
		t.Fatalf("GTS cycle unresolved: %v / %v", cold.UnresolvedLinks, warm.UnresolvedLinks)
	}
	// The paper's Figure 15 point: warm KSP caches make the second run
	// cheaper. Wall clocks are noisy in CI, so compare lightly.
	if warm.Runtime > cold.Runtime*3 {
		t.Fatalf("warm run (%v) much slower than cold (%v)", warm.Runtime, cold.Runtime)
	}
}

func TestControllerRejectsBadInput(t *testing.T) {
	g := twoPathGraph()
	c := NewController(g, Config{})
	if _, err := c.Optimize(nil); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := c.Optimize([]AggregateInput{{Src: 0, Dst: 2}}); err == nil {
		t.Fatal("missing series should error")
	}
	dup := []AggregateInput{
		{Src: 0, Dst: 2, Series: steadySeries(1e9, 10)},
		{Src: 0, Dst: 2, Series: steadySeries(1e9, 10)},
	}
	if _, err := c.Optimize(dup); err == nil {
		t.Fatal("duplicate pairs should error")
	}
}

func TestControllerIdleAggregate(t *testing.T) {
	g := twoPathGraph()
	c := NewController(g, Config{})
	inputs := []AggregateInput{
		{Src: 0, Dst: 2, Flows: 1, Series: steadySeries(0, 600)},
		{Src: 1, Dst: 2, Flows: 1, Series: steadySeries(1e9, 600)},
	}
	res, err := c.Optimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Demands) != 2 {
		t.Fatalf("idle aggregate dropped: %v", res.Demands)
	}
	if err := res.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppraisePlacementOnForeignScheme(t *testing.T) {
	// §8 generality: the multiplexing appraisal applies to placements
	// from any scheme (here B4).
	g := twoPathGraph()
	c := NewController(g, Config{})
	inputs := []AggregateInput{
		{Src: 0, Dst: 2, Flows: 1, Series: steadySeries(9.5e9, 600)},
	}
	// Build the same matrix B4 would see.
	m := tm.New([]tm.Aggregate{{Src: 0, Dst: 2, Volume: 9.5e9, Flows: 1}})
	p, err := (routing.B4{}).Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := c.AppraisePlacement(p, inputs)
	if len(verdicts) == 0 {
		t.Fatal("no links appraised")
	}
	for lid, v := range verdicts {
		if !v.Pass && !v.FailedTemporal && !v.FailedConvolution {
			t.Fatalf("link %d: fail without reason: %+v", lid, v)
		}
	}
}

func TestControllerUnresolvableBursts(t *testing.T) {
	// A single aggregate whose bursts alone exceed every path's capacity
	// can never pass; the controller must stop at MaxMuxRounds and
	// report the unresolved links instead of looping forever.
	g := twoPathGraph()
	c := NewController(g, Config{MaxMuxRounds: 3})
	burst := make([]float64, 600)
	for i := range burst {
		burst[i] = 2e9
		if i%4 == 0 {
			burst[i] = 15e9 // above any single link
		}
	}
	inputs := []AggregateInput{{Src: 0, Dst: 2, Flows: 1, Series: burst}}
	res, err := c.Optimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if res.MuxRounds != 3 {
		t.Fatalf("rounds = %d, want MaxMuxRounds", res.MuxRounds)
	}
	if len(res.UnresolvedLinks) == 0 {
		t.Fatal("expected unresolved links to be reported")
	}
}

func TestMuxConfigPlumbs(t *testing.T) {
	// A tiny queue bound turns moderately bursty traffic into a failure.
	g := twoPathGraph()
	strict := NewController(g, Config{
		Mux:          mux.CheckConfig{MaxQueueSec: 1e-9, IntervalSec: 60},
		MaxMuxRounds: 2,
	})
	burst := make([]float64, 600)
	for i := range burst {
		burst[i] = 5e9
		if i%3 == 0 {
			burst[i] = 11e9
		}
	}
	inputs := []AggregateInput{{Src: 0, Dst: 2, Flows: 1, Series: burst}}
	res, err := strict.Optimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnresolvedLinks) == 0 && res.MuxRounds == 1 {
		t.Fatal("strict queue bound should have triggered scale-ups or failure")
	}
}

func TestScaleUpBeatsScaleDown(t *testing.T) {
	// The §5 design argument: scaling up the badly-multiplexing
	// aggregate lets the optimizer move *it* specifically, while
	// shrinking the link punishes the smooth aggregate too. Both modes
	// must converge here, and the aggregate-scaling mode must deliver
	// latency at least as good.
	b := graph.NewBuilder("abl")
	s1 := b.AddNode("s1", geo.Point{})
	s2 := b.AddNode("s2", geo.Point{})
	h := b.AddNode("h", geo.Point{})
	x := b.AddNode("x", geo.Point{})
	z := b.AddNode("z", geo.Point{})
	b.AddBiLink(s1, h, 100e9, 0.001)
	b.AddBiLink(s2, h, 100e9, 0.001)
	b.AddBiLink(h, z, 10e9, 0.010)
	b.AddBiLink(h, x, 10e9, 0.007)
	b.AddBiLink(x, z, 10e9, 0.007)
	g := b.MustBuild()

	smooth := steadySeries(4.5e9, 600)
	bursty := make([]float64, 600)
	for i := range bursty {
		bursty[i] = 3e9
		if i%10 < 3 {
			bursty[i] = 8e9
		}
	}
	inputs := []AggregateInput{
		{Src: s1, Dst: z, Flows: 10, Series: smooth},
		{Src: s2, Dst: z, Flows: 10, Series: bursty},
	}

	up, err := NewController(g, Config{}).Optimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	down, err := NewController(g, Config{ScaleLinksInstead: true}).Optimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(up.UnresolvedLinks) != 0 {
		t.Fatalf("scale-up mode did not converge: %v", up.UnresolvedLinks)
	}
	if len(down.UnresolvedLinks) == 0 {
		// Both converged: scale-up must not be worse on latency.
		if up.Placement.LatencyStretch() > down.Placement.LatencyStretch()+1e-6 {
			t.Fatalf("scale-up stretch %v worse than scale-down %v",
				up.Placement.LatencyStretch(), down.Placement.LatencyStretch())
		}
	}
	// The scale-down mode must not have touched aggregate demands.
	for _, m := range down.Multipliers {
		if m != 1 {
			t.Fatalf("scale-down mode scaled an aggregate: %v", down.Multipliers)
		}
	}
}
