package tmgen

import (
	"testing"

	"lowlat/internal/routing"
	"lowlat/internal/topo"
)

// BenchmarkLocalityLP is the ladder's locality rung: applyLocality, the
// footnote-3 transportation LP, on one seed-0 gravity matrix per net over a
// warm path cache, so an iteration is the LP's assembly and solve alone
// (tree-2x4: 930 variables by 62 rows). pivots/op is the solve's pivot
// count, the same at every iteration.
func BenchmarkLocalityLP(b *testing.B) {
	for _, name := range []string{"ring-16", "tree-2x4"} {
		b.Run(name, func(b *testing.B) {
			e, ok := topo.ByName(name)
			if !ok {
				b.Fatalf("%s missing from the zoo", name)
			}
			g := e.Build()
			cache := routing.NewPathCache(g)
			base := gravity(g.NumNodes(), 0)
			prob, _, err := localityLP(g, cache, base, 1)
			if err != nil {
				b.Fatal(err)
			}
			sol, err := prob.Solve()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := applyLocality(g, cache, base, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sol.Iterations), "pivots/op")
		})
	}
}
