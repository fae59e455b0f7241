package lowlat

// Benchmarks for the modules beyond the paper's figures: the fluid
// simulator, the closed control loop, topology file I/O, and the MPLS-TE
// vs B4 greedy-order ablation.

import (
	"bytes"
	"testing"

	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/sim"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
	"lowlat/internal/topoio"
	"lowlat/internal/trace"
)

func gridForBench(b *testing.B) *graphGraph {
	b.Helper()
	return &graphGraph{topo.Grid("bench-grid", 4, 4, 300, topo.Cap10G)}
}

func gridSpecsForBench(b *testing.B, g *graphGraph) (*tmgen.Result, []sim.AggregateSpec) {
	b.Helper()
	res, err := tmgen.Generate(g.g, tmgen.Config{Seed: 1, TargetMaxUtil: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	return res, sim.SpecsFromMatrix(res.Matrix, 1)
}

type graphGraph struct{ g *graph.Graph }

// BenchmarkAblationB4Place and BenchmarkAblationMPLSTEPlace compare the
// two greedy allocators §3 discusses: B4's parallel waterfill (splits at
// quantum granularity) against MPLS-TE's one-LSP-at-a-time CSPF.
func BenchmarkAblationB4Place(b *testing.B) {
	tg, tm := gtsMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (routing.B4{}).Place(tg.g, tm.r.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMPLSTEPlace(b *testing.B) {
	tg, tm := gtsMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (routing.MPLSTE{}).Place(tg.g, tm.r.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimMinuteGTS plays one minute of 100 ms bins over a
// latency-optimal GTS-like placement — the per-cycle cost of validating an
// installed placement.
func BenchmarkSimMinuteGTS(b *testing.B) {
	tg, tm := gtsMatrix(b)
	p, err := (routing.LatencyOpt{}).Place(tg.g, tm.r.Matrix)
	if err != nil {
		b.Fatal(err)
	}
	traffic := make([][]float64, tm.r.Matrix.Len())
	for i, a := range tm.r.Matrix.Aggregates {
		traffic[i] = trace.AggregateSeries(int64(i), 600, a.Volume, 0.25, 0.9)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, traffic, sim.Config{BinSec: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedLoopMinute runs one full control cycle (measure ->
// optimize -> install -> simulate) on a 16-node grid.
func BenchmarkClosedLoopMinute(b *testing.B) {
	g := gridForBench(b)
	_, specs := gridSpecsForBench(b, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunClosedLoop(g.g, specs, sim.ClosedLoopConfig{Minutes: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopoIOReadGraphML and ReadRepetita measure topology parse
// throughput on the GTS-like network.
func BenchmarkTopoIOReadGraphML(b *testing.B) {
	tg, _ := gtsMatrix(b)
	var buf bytes.Buffer
	if err := topoio.WriteGraphML(&buf, tg.g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topoio.ReadGraphML(bytes.NewReader(data), topoio.GraphMLOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopoIOReadRepetita(b *testing.B) {
	tg, _ := gtsMatrix(b)
	var buf bytes.Buffer
	if err := topoio.WriteRepetita(&buf, tg.g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topoio.ReadRepetita(bytes.NewReader(data), topoio.RepetitaOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
