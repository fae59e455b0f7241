package dynamics

import (
	"context"
	"runtime"
	"testing"

	"lowlat/internal/engine"
	"lowlat/internal/routing"
	"lowlat/internal/sweep"
)

// BenchmarkDynamicsEpoch is the ladder's rung for one re-optimised epoch:
// per reopt_loop net, an iteration replays that workload's two timelines
// (six epochs of random failures under diurnal churn, MinMax then
// LatencyOpt, matrix seed 7 at load 0.70) on a fresh runner, so every
// iteration starts with cold path caches as a bench round does. ns/op,
// B/op and allocs/op are per epoch. Run it at a fixed -benchtime
// (scripts/bench_json.sh uses 20x), never 1x.
func BenchmarkDynamicsEpoch(b *testing.B) {
	const epochs = 6
	cfg := Config{Seed: 1, Epochs: epochs, Failures: FailRandom, Churn: ChurnDiurnal}
	schemes := []routing.Scheme{routing.MinMax{}, routing.LatencyOpt{}}
	for _, name := range []string{"ring-16", "grid-4x4", "wheel-16"} {
		b.Run(name, func(b *testing.B) {
			spec, err := sweep.ResolveNet(name)
			if err != nil {
				b.Fatal(err)
			}
			base, err := sweep.GenerateMatrix(spec.Graph, 7, 0.70, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runner := engine.NewRunner(1)
				for _, s := range schemes {
					if _, err := Run(context.Background(), runner, spec.Graph, base, s, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			ops := float64(b.N * len(schemes) * epochs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/op")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/ops, "B/op")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/ops, "allocs/op")
		})
	}
}
