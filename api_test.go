package lowlat_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"lowlat"
	"lowlat/internal/engine"
	"lowlat/internal/experiments"
	"lowlat/internal/mux"
	"lowlat/internal/topo"
)

// These tests exercise the package's public facade the way a downstream
// importer would: build or pick a topology, score it, generate traffic,
// route it with each scheme, and run the LDR controller. The facade keeps
// only what the examples and README name; where a test needs more (the
// experiment registry, the multiplexing checks, topology serialization)
// it calls the owning internal package, which tests inside the module may
// import.

func TestFacadeTopologyConstruction(t *testing.T) {
	b := lowlat.NewBuilder("tiny")
	a := b.AddNode("a", lowlat.Point{Lat: 50, Lon: 0})
	c := b.AddNode("b", lowlat.Point{Lat: 50, Lon: 2})
	b.AddGeoBiLink(a, c, 10e9)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumLinks() != 2 {
		t.Fatalf("got %d nodes, %d links", g.NumNodes(), g.NumLinks())
	}
	p, ok := g.ShortestPath(a, c, nil, nil)
	if !ok || p.Delay <= 0 {
		t.Fatalf("shortest path = %+v, ok=%v", p, ok)
	}
}

func TestFacadeZooAndMetrics(t *testing.T) {
	if n := len(lowlat.Zoo()); n != 116 {
		t.Fatalf("zoo size = %d, want 116", n)
	}
	e, ok := topo.ByName("gts-like")
	if !ok {
		t.Fatal("gts-like must resolve")
	}
	llpd := lowlat.LLPD(e.Build(), lowlat.APAConfig{})
	if llpd < 0.5 {
		t.Fatalf("gts-like LLPD = %v, want high (> 0.5)", llpd)
	}
	tree := lowlat.Tree("t", 2, 3, 300, 10e9)
	if tl := lowlat.LLPD(tree, lowlat.APAConfig{}); tl != 0 {
		t.Fatalf("tree LLPD = %v, want 0", tl)
	}
	dist := lowlat.APADistribution(tree, lowlat.APAConfig{})
	for _, v := range dist {
		if v != 0 {
			t.Fatalf("tree APA values must all be 0, got %v", v)
		}
	}
}

func TestFacadeRoutingPipeline(t *testing.T) {
	g := lowlat.GTSLike()
	res, err := lowlat.GenerateTraffic(g, lowlat.TrafficConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Matrix

	for _, s := range lowlat.Schemes() {
		p, err := s.Place(g, m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: invalid placement: %v", s.Name(), err)
		}
		if st := p.LatencyStretch(); st < 1-1e-9 {
			t.Fatalf("%s: stretch %v < 1", s.Name(), st)
		}
	}

	// The latency-optimal scheme must fit this calibrated load.
	opt, err := lowlat.NewLatencyOptimal(0).Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Fits() {
		t.Fatalf("latency-optimal must fit the calibrated matrix (max util %v)", opt.MaxUtilization())
	}
}

func TestFacadeMPLSTE(t *testing.T) {
	g := lowlat.GTSLike()
	res, err := lowlat.GenerateTraffic(g, lowlat.TrafficConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := lowlat.NewMPLSTE().Place(g, res.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every LSP is unsplittable: exactly one path per aggregate.
	for i, allocs := range p.Allocs {
		if len(allocs) != 1 || math.Abs(allocs[0].Fraction-1) > 1e-9 {
			t.Fatalf("aggregate %d: MPLS-TE must place exactly one full path, got %+v", i, allocs)
		}
	}
}

func TestFacadeControllerEndToEnd(t *testing.T) {
	g := lowlat.GTSLike()
	res, err := lowlat.GenerateTraffic(g, lowlat.TrafficConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]lowlat.AggregateInput, res.Matrix.Len())
	for i, a := range res.Matrix.Aggregates {
		series := make([]float64, 60) // steady 100ms bins over 6s
		for j := range series {
			series[j] = a.Volume
		}
		inputs[i] = lowlat.AggregateInput{
			Src: a.Src, Dst: a.Dst, Flows: a.Flows, Series: series,
		}
	}
	ctl := lowlat.NewController(g, lowlat.ControllerConfig{})
	out, err := ctl.Optimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Placement == nil || !out.Placement.Fits() {
		t.Fatal("controller must produce a fitting placement for steady traffic")
	}
}

func TestFacadeTraceAndPredictor(t *testing.T) {
	tr := lowlat.GenerateTrace(lowlat.TraceConfig{Seed: 1, Minutes: 5, BinsPerSecond: 10})
	bpm := tr.BinsPerMinute()
	means := lowlat.MinuteMeans(tr.Rates, bpm)
	if len(means) != 5 {
		t.Fatalf("got %d minute means, want 5", len(means))
	}
	ratios := lowlat.EvaluateTrace(means)
	for _, r := range ratios {
		if r <= 0 || r > 1.5 {
			t.Fatalf("implausible measured/predicted ratio %v", r)
		}
	}
	stds := lowlat.MinuteStds(tr.Rates, bpm)
	if len(stds) != 5 {
		t.Fatalf("got %d minute stds, want 5", len(stds))
	}
}

func TestFacadeGrowAndSerialize(t *testing.T) {
	g := lowlat.Ring("r", 8, 500, 10e9)
	grown, added := lowlat.GrowTopology(g, lowlat.GrowConfig{})
	if len(added) == 0 {
		t.Fatal("growth must add at least one link to a ring")
	}
	if grown.NumLinks() <= g.NumLinks() {
		t.Fatal("grown topology must have more links")
	}
	data := topo.Marshal(grown)
	back, err := topo.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumLinks() != grown.NumLinks() || back.NumNodes() != grown.NumNodes() {
		t.Fatal("round trip changed topology size")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	names := experiments.Names()
	if len(names) == 0 {
		t.Fatal("no experiments registered")
	}
	var buf bytes.Buffer
	cfg := experiments.Config{
		TMsPerTopology: 1,
		Seed:           1,
		NetworkFilter: func(n experiments.Network) bool {
			return n.Name == "grid-4x4" || n.Name == "ring-16"
		},
	}
	if err := experiments.Run("fig1", cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig1") && buf.Len() == 0 {
		t.Fatal("experiment produced no output")
	}
}

func TestFacadeMuxChecks(t *testing.T) {
	steady := [][]float64{{1e9, 1e9, 1e9, 1e9}, {2e9, 2e9, 2e9, 2e9}}
	v := mux.CheckLink(steady, 10e9, mux.CheckConfig{})
	if !v.Pass {
		t.Fatalf("steady light load must pass: %+v", v)
	}
	if d := mux.MaxQueueDelay(steady, 1e9, 0.1); d <= 0 {
		t.Fatalf("overloaded link must queue, got %v", d)
	}
}

func TestFacadeScenarioEngine(t *testing.T) {
	g := lowlat.Grid("facade-grid", 4, 4, 300, 10e9)
	ms, err := lowlat.GenerateTrafficSet(g, lowlat.TrafficConfig{Seed: 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []lowlat.Scenario
	for _, scheme := range lowlat.Schemes() {
		for _, m := range ms {
			scenarios = append(scenarios, lowlat.Scenario{
				Tag: "facade-grid/" + scheme.Name(), Graph: g, Matrix: m, Scheme: scheme,
			})
		}
	}
	seq, err := lowlat.RunScenarios(context.Background(), 1, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	par, err := lowlat.RunScenarios(context.Background(), 8, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(scenarios) || len(par) != len(scenarios) {
		t.Fatalf("result counts %d/%d, want %d", len(seq), len(par), len(scenarios))
	}
	for i := range seq {
		if seq[i].Index != i || par[i].Index != i {
			t.Fatalf("results out of submission order at %d", i)
		}
		if seq[i].Placement.LatencyStretch() != par[i].Placement.LatencyStretch() {
			t.Fatalf("scenario %d: parallel differs from sequential", i)
		}
	}

	// A runner reused across submissions keeps its solver cache warm.
	r := engine.NewRunner(4)
	if _, err := r.Run(context.Background(), scenarios[:2]); err != nil {
		t.Fatal(err)
	}
	pc := r.Cache().ForGraph(g)
	warm := 0
	for _, a := range ms[0].Aggregates {
		warm += pc.Generated(a.Src, a.Dst)
	}
	if warm == 0 {
		t.Fatal("runner cache stayed cold")
	}
}
