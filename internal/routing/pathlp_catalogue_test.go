package routing_test

import (
	"context"
	"testing"

	"lowlat/internal/dynamics"
	"lowlat/internal/engine"
	"lowlat/internal/routing"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

// pathLPNet is one net of the catalogue the path-LP differential test
// walks. Every net is solved intact; timeline says whether it also gets the
// six-epoch failure timeline.
type pathLPNet struct {
	topo.Entry
	timeline bool
}

// pathLPNets lists the three reopt_loop nets and a tree, with timelines,
// always; unless -short, every zoo net of at most 20 nodes too, those of
// at most 12 nodes with timelines. The bounds keep the test near 20 s:
// the intact solves of the 21- to 30-node nets add 45 s, and a timeline on
// every net over an hour (a failed grid-5x5 alone spends 90 s per scheme
// in sixty growth rounds of 80-row LPs).
func pathLPNets() []pathLPNet {
	var out []pathLPNet
	named := map[string]bool{"ring-16": true, "grid-4x4": true, "wheel-16": true, "tree-2x4": true}
	for _, e := range topo.Zoo() {
		n := e.Build().NumNodes()
		if named[e.Name] || (!testing.Short() && n <= 20) {
			out = append(out, pathLPNet{Entry: e, timeline: named[e.Name] || n <= 12})
		}
	}
	return out
}

// TestPathLPBuilderMatchesReference runs every path-LP scheme variant on
// every catalogue net — the intact graph at load 0.7, then (see
// pathLPNets) a six-epoch random-failure timeline under diurnal churn, the
// reopt_loop shape — with each LP the solver assembles compared against
// the map-based reference builder (see RefChecked).
func TestPathLPBuilderMatchesReference(t *testing.T) {
	schemes := []routing.Scheme{
		routing.LatencyOpt{},
		routing.LatencyOpt{Exact: true},
		routing.MinMax{},
		routing.MinMax{K: 10},
		routing.MinMax{StretchBound: 1.5},
	}
	cfg := dynamics.Config{Seed: 1, Epochs: 6, Failures: dynamics.FailRandom, Churn: dynamics.ChurnDiurnal}
	var stats routing.RefCheckStats
	for _, e := range pathLPNets() {
		g := e.Build()
		res, err := tmgen.Generate(g, tmgen.Config{Seed: 7, TargetMaxUtil: 0.7})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, s := range schemes {
			checked := routing.RefChecked(t, s, &stats)
			if _, err := checked.Place(g, res.Matrix); err != nil {
				t.Fatalf("%s/%s: %v", e.Name, s.Name(), err)
			}
			if !e.timeline {
				continue
			}
			if _, err := dynamics.Run(context.Background(), engine.NewRunner(1), g, res.Matrix, checked, cfg); err != nil {
				t.Fatalf("%s/%s timeline: %v", e.Name, s.Name(), err)
			}
		}
	}
	t.Logf("%+v", stats)
	// The catalogue must reach what the builder's rules are for: Omax
	// re-solves, deep growth on overloaded epochs, links on both p and p0,
	// rows whose every coefficient cancels.
	if stats.OmaxModels == 0 || stats.MaxRound < 10 || stats.Shared == 0 || stats.Cancelled == 0 {
		t.Fatalf("catalogue too narrow: %+v", stats)
	}
}

// BenchmarkPathLPBuild is the ladder's rung for assembling one path LP,
// with no solve: the LatencyOpt model (Omax rows included) of the first
// reopt_loop-timeline epoch that is overloaded past growth round 10. Run
// it at a fixed -benchtime (scripts/bench_json.sh uses 2000x: an assembly is
// tens of microseconds).
func BenchmarkPathLPBuild(b *testing.B) {
	cfg := dynamics.Config{Seed: 1, Epochs: 6, Failures: dynamics.FailRandom, Churn: dynamics.ChurnDiurnal}
	for _, name := range []string{"grid-4x4", "wheel-16"} {
		b.Run(name, func(b *testing.B) {
			e, _ := topo.ByName(name)
			g := e.Build()
			res, err := tmgen.Generate(g, tmgen.Config{Seed: 7, TargetMaxUtil: 0.7})
			if err != nil {
				b.Fatal(err)
			}
			capture := &routing.BuildCapture{Scheme: routing.LatencyOpt{}, TB: b, MinRound: 10}
			if _, err := dynamics.Run(context.Background(), engine.NewRunner(1), g, res.Matrix, capture, cfg); err != nil {
				b.Fatal(err)
			}
			vars, rows, ok := capture.Rebuild()
			if !ok {
				b.Fatal("no epoch of the timeline reached growth round 10 overloaded")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				capture.Rebuild()
			}
			b.ReportMetric(float64(vars), "vars")
			b.ReportMetric(float64(rows), "rows")
		})
	}
}
