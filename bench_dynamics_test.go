package lowlat

// Benchmark for the dynamic-workload subsystem's timeline machinery. The
// re-optimised epoch itself is on the CI ladder as
// internal/dynamics.BenchmarkDynamicsEpoch, at a fixed iteration count.

import (
	"context"
	"testing"

	"lowlat/internal/dynamics"
	"lowlat/internal/engine"
	"lowlat/internal/routing"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

// BenchmarkDynamicsSingleFailureSweep enumerates every single-link
// failure of the grid under shortest-path routing — the fastest scheme,
// so the number tracks the timeline machinery itself.
func BenchmarkDynamicsSingleFailureSweep(b *testing.B) {
	g := topo.Grid("bench-dyn-grid2", 4, 4, 300, topo.Cap10G)
	res, err := tmgen.Generate(g, tmgen.Config{Seed: 1, TargetMaxUtil: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	cfg := dynamics.Config{Seed: 1, Failures: dynamics.FailSingle}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamics.Run(context.Background(), engine.NewRunner(0), g, res.Matrix, routing.SP{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
