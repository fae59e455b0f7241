package routing_test

import (
	"runtime"
	"sort"
	"testing"

	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

// warmBytes is the median over eleven calls of op of the bytes one call
// allocates, after a first call that warms the path cache and the
// solver's pools. The median of single calls, because a collection can
// empty the pools, and the call after it pays for refilling them.
func warmBytes(tb testing.TB, op func() error) float64 {
	tb.Helper()
	if err := op(); err != nil {
		tb.Fatal(err)
	}
	runs := make([]float64, 11)
	for r := range runs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := op(); err != nil {
			tb.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runs[r] = float64(after.TotalAlloc - before.TotalAlloc)
	}
	sort.Float64s(runs)
	return runs[len(runs)/2]
}

// fenceNet builds a zoo net and its seed-7 matrix.
func fenceNet(tb testing.TB, name string) (*graph.Graph, *tm.Matrix) {
	tb.Helper()
	e, ok := topo.ByName(name)
	if !ok {
		tb.Fatalf("no zoo net %q", name)
	}
	g := e.Build()
	res, err := tmgen.Generate(g, tmgen.Config{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return g, res.Matrix
}

// TestWarmSolveBytes fences what a warm solve allocates: a path-LP scheme
// placing a matrix on a net whose path cache is filled, and one matrix
// calibrated on such a net. The budget is on bytes, not allocation counts:
// reusing the solver's buffers removes large allocations, not many.
func TestWarmSolveBytes(t *testing.T) {
	place := func(name string, scheme func(*routing.PathCache) routing.Scheme) func() error {
		g, m := fenceNet(t, name)
		s := scheme(routing.NewPathCache(g))
		return func() error {
			_, err := s.Place(g, m)
			return err
		}
	}
	minmax := func(pc *routing.PathCache) routing.Scheme { return routing.MinMax{Cache: pc} }
	latopt := func(pc *routing.PathCache) routing.Scheme { return routing.LatencyOpt{Cache: pc} }
	generate := func(name string) func() error {
		e, _ := topo.ByName(name)
		g := e.Build()
		pc := routing.NewPathCache(g)
		return func() error {
			_, err := tmgen.Generate(g, tmgen.Config{Seed: 7, Cache: pc})
			return err
		}
	}
	// parent is the bytes per call measured with a fresh tableau, model
	// and distance matrix per solve (go 1.24, linux/amd64); the budget is
	// half of it.
	for _, c := range []struct {
		name   string
		parent float64
		op     func() error
	}{
		{"minmax/ring-16", 645344, place("ring-16", minmax)},
		{"minmax/grid-4x4", 2383472, place("grid-4x4", minmax)},
		{"latopt/ring-16", 280000, place("ring-16", latopt)},
		{"latopt/grid-4x4", 132880, place("grid-4x4", latopt)},
		{"generate/tree-2x4", 1418248, generate("tree-2x4")},
	} {
		got := warmBytes(t, c.op)
		t.Logf("%s: %.0f B per call (budget %.0f)", c.name, got, c.parent/2)
		if got > c.parent/2 {
			t.Errorf("%s: %.0f B per warm call, over half of the %.0f B of a fresh-buffer solve", c.name, got, c.parent)
		}
	}
}
