package dynamics

import (
	"context"
	"math"
	"reflect"
	"testing"

	"lowlat/internal/engine"
	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
	"lowlat/internal/topo"
	"lowlat/internal/trace"
)

// testGraph is a 6-node ring: every physical-link failure leaves it
// connected, every node failure isolates exactly one node.
func testGraph() *graph.Graph {
	return topo.Ring("ring-test", 6, 500, 10e9)
}

// testMatrix demands modest volume between three pairs.
func testMatrix(g *graph.Graph) *tm.Matrix {
	return tm.New([]tm.Aggregate{
		{Src: 0, Dst: 3, Volume: 1e9},
		{Src: 1, Dst: 4, Volume: 2e9},
		{Src: 2, Dst: 5, Volume: 1.5e9},
	})
}

func TestSingleLinkFailuresEnumeration(t *testing.T) {
	g := testGraph()
	fails := SingleLinkFailures(g)
	if len(fails) != 6 { // a 6-ring has 6 physical links
		t.Fatalf("single failures = %d, want 6", len(fails))
	}
	for _, f := range fails {
		if len(f.Links) != 2 {
			t.Fatalf("%s: directed links = %d, want 2", f.Name, len(f.Links))
		}
		d := Degrade(g, f)
		if d.NumLinks() != g.NumLinks()-2 {
			t.Fatalf("%s: degraded links = %d, want %d", f.Name, d.NumLinks(), g.NumLinks()-2)
		}
		if d.NumNodes() != g.NumNodes() {
			t.Fatalf("%s: degraded nodes = %d, want %d", f.Name, d.NumNodes(), g.NumNodes())
		}
		if !d.Connected() {
			t.Fatalf("%s: single ring-link failure must not disconnect", f.Name)
		}
	}
}

func TestDoubleLinkFailuresSampling(t *testing.T) {
	g := testGraph()
	all := DoubleLinkFailures(g, 0, 1)
	if len(all) != 15 { // C(6,2)
		t.Fatalf("double failures = %d, want 15", len(all))
	}
	sampled := DoubleLinkFailures(g, 7, 1)
	if len(sampled) != 7 {
		t.Fatalf("sampled failures = %d, want 7", len(sampled))
	}
	again := DoubleLinkFailures(g, 7, 1)
	if !reflect.DeepEqual(sampled, again) {
		t.Fatal("sampling must be deterministic for a fixed seed")
	}
}

func TestNodeFailuresDropDemand(t *testing.T) {
	g := testGraph()
	fails := NodeFailures(g)
	if len(fails) != g.NumNodes() {
		t.Fatalf("node failures = %d, want %d", len(fails), g.NumNodes())
	}
	m := testMatrix(g)
	d := Degrade(g, fails[0])
	got, lost := restrict(d, m, fails[0])
	// Node 0 kills the 0->3 aggregate (1e9 of 4.5e9 total).
	if got.Len() != 2 {
		t.Fatalf("restricted matrix has %d aggregates, want 2", got.Len())
	}
	want := 1e9 / 4.5e9
	if math.Abs(lost-want) > 1e-9 {
		t.Fatalf("lost = %v, want %v", lost, want)
	}
}

func TestDegradeEmptyFailureIsIdentity(t *testing.T) {
	g := testGraph()
	if Degrade(g, Failure{}) != g {
		t.Fatal("empty failure must return the base graph unchanged")
	}
}

func TestRandomFailureSequenceDeterministic(t *testing.T) {
	g := testGraph()
	a := RandomFailureSequence(g, 10, 0.3, 0.5, 42)
	b := RandomFailureSequence(g, 10, 0.3, 0.5, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give the same failure sequence")
	}
	if len(a) != 10 {
		t.Fatalf("epochs = %d, want 10", len(a))
	}
	if !a[0].Empty() {
		t.Fatal("epoch 0 must start all-up")
	}
	sawDown := false
	for _, f := range a {
		if !f.Empty() {
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatal("a 30% per-epoch failure rate should take something down in 10 epochs")
	}
}

func TestDiurnalScales(t *testing.T) {
	s := DiurnalScales(8, 0.3)
	if s[0] != 1 {
		t.Fatalf("first epoch scale = %v, want 1", s[0])
	}
	minS, maxS := s[0], s[0]
	for _, v := range s {
		minS = math.Min(minS, v)
		maxS = math.Max(maxS, v)
	}
	if maxS < 1.29 || minS > 0.71 {
		t.Fatalf("amplitude not reached: min %v max %v", minS, maxS)
	}
}

func TestTraceScalesMeanOne(t *testing.T) {
	tr := trace.Generate(trace.Config{Seed: 3, Minutes: 8, BinsPerSecond: 1})
	s := TraceScales(tr, 8)
	if len(s) != 8 {
		t.Fatalf("scales = %d, want 8", len(s))
	}
	mean := 0.0
	for _, v := range s {
		if v <= 0 {
			t.Fatalf("non-positive scale %v", v)
		}
		mean += v
	}
	mean /= 8
	if math.Abs(mean-1) > 0.25 {
		t.Fatalf("scales should hover around 1, mean %v", mean)
	}
}

func TestSurgeDeterministicAndBounded(t *testing.T) {
	g := testGraph()
	m := testMatrix(g)
	a := Surge(m, 5, 0.5, 3)
	b := Surge(m, 5, 0.5, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must surge the same pairs")
	}
	for i, agg := range a.Aggregates {
		base := m.Aggregates[i].Volume
		if agg.Volume != base && agg.Volume != base*3 {
			t.Fatalf("aggregate %d volume %v is neither base nor 3x base", i, agg.Volume)
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	g := testGraph()
	m := testMatrix(g)
	cfg := Config{Seed: 9, Epochs: 6, Failures: FailRandom, Churn: ChurnDiurnal}
	var prev *Result
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), engine.NewRunner(workers), g, m, routing.MinMax{}, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if prev != nil && !reflect.DeepEqual(prev, res) {
			t.Fatalf("results differ between worker widths:\n1: %+v\n8: %+v", prev, res)
		}
		prev = res
	}
}

func TestRunSingleFailureTimeline(t *testing.T) {
	g := testGraph()
	m := testMatrix(g)
	res, err := Run(context.Background(), engine.NewRunner(0), g, m,
		routing.SP{}, Config{Seed: 1, Failures: FailSingle})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline epoch plus one per physical link.
	if len(res.Epochs) != 7 {
		t.Fatalf("epochs = %d, want 7", len(res.Epochs))
	}
	if res.Epochs[0].PathChurn != 0 {
		t.Fatal("first epoch has no predecessor, churn must be 0")
	}
	rerouted := 0
	for _, ep := range res.Epochs[1:] {
		// Churn is measured against the intact baseline, so it is zero
		// exactly when the failed link carried none of the three demands.
		if ep.PathChurn > 0 {
			rerouted++
		}
		if ep.LostDemand != 0 {
			t.Fatalf("epoch %d: single ring failure cannot strand demand, lost = %v",
				ep.Epoch, ep.LostDemand)
		}
		if ep.Stretch < 1 {
			t.Fatalf("epoch %d: stretch %v < 1", ep.Epoch, ep.Stretch)
		}
	}
	// The three diametric demands use shortest paths covering at least
	// half the ring, so several of the six link failures must reroute.
	if rerouted < 2 {
		t.Fatalf("only %d of 6 single-link failures rerouted anything", rerouted)
	}
}

func TestRunNodeFailureLosesDemand(t *testing.T) {
	g := testGraph()
	m := testMatrix(g)
	res, err := Run(context.Background(), engine.NewRunner(0), g, m,
		routing.SP{}, Config{Seed: 1, Failures: FailNode})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 7 { // baseline + 6 nodes
		t.Fatalf("epochs = %d, want 7", len(res.Epochs))
	}
	if res.MaxLostDemand() <= 0 {
		t.Fatal("every test aggregate touches some node; node failures must lose demand")
	}
	for _, ep := range res.Epochs[1:] {
		if ep.Fits {
			t.Fatalf("epoch %d (%s): lost demand must mean the epoch does not fit", ep.Epoch, ep.Failure)
		}
	}
}

func TestRunReplayTimeline(t *testing.T) {
	g := testGraph()
	dt := &trace.DemandTrace{Samples: []trace.DemandSample{
		{Time: 0, Src: "r0", Dst: "r3", Bps: 1e9},
		{Time: 60, Src: "r1", Dst: "r4", Bps: 2e9},
		{Time: 120, Src: "r0", Dst: "r3", Bps: 0}, // retire
	}}
	res, err := Run(context.Background(), engine.NewRunner(0), g, tm.New(nil),
		routing.SP{}, Config{Seed: 1, Churn: ChurnReplay, Replay: dt})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3 (one per distinct timestamp)", len(res.Epochs))
	}
	if res.Epochs[1].PathChurn <= 0 {
		t.Fatal("a new pair appearing must register as churn")
	}
}

func TestConfigValidation(t *testing.T) {
	g := testGraph()
	m := testMatrix(g)
	cases := []Config{
		{Failures: "meteor"},
		{Churn: "tide"},
		{Churn: ChurnReplay}, // no Replay trace
		{Churn: ChurnReplay, Replay: &trace.DemandTrace{Samples: []trace.DemandSample{{Src: "a", Dst: "b", Bps: 1}}}, Failures: FailSingle},
		{Failures: FailRandom, FailProb: 1.5},
		{Failures: FailRandom, RepairProb: 7},
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), engine.NewRunner(1), g, m, routing.SP{}, cfg); err == nil {
			t.Fatalf("case %d: config %+v must be rejected", i, cfg)
		}
	}
}
