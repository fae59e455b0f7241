package tmgen_test

import (
	"fmt"
	"sync"
	"testing"

	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

func zooGraph(tb testing.TB, name string) *graph.Graph {
	tb.Helper()
	e, ok := topo.ByName(name)
	if !ok {
		tb.Fatalf("%s missing from the zoo", name)
	}
	return e.Build()
}

// calibration is everything Generate reports, in comparable form.
type calibration struct {
	digest      store.Digest
	scale, util float64
}

func generate(t *testing.T, g *graph.Graph, seed int64, cache *routing.PathCache) calibration {
	t.Helper()
	res, err := tmgen.Generate(g, tmgen.Config{Seed: seed, Cache: cache})
	if err != nil {
		t.Errorf("%s seed %d: %v", g.Name(), seed, err)
		return calibration{}
	}
	return calibration{store.MatrixDigest(g, res.Matrix), res.ScaleFactor, res.MinMaxUtil}
}

// TestGenerateIgnoresCacheState: the matrix, its scale factor and the
// measured MinMax utilization are identical whether Generate runs without
// a cache, on a fresh one, or — concurrently with the other seeds — on a
// shared one that other seeds' calibrations and LatencyOpt, MinMax and B4
// solves have already extended. The shared leg is the one with state to
// get wrong, so it runs every seed; a fresh cache is the same code path
// as no cache (Generate makes one), so two seeds cover it.
func TestGenerateIgnoresCacheState(t *testing.T) {
	nets := []string{"ring-16", "wheel-16", "tree-2x4", "grid-4x4"}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, name := range nets {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := zooGraph(t, name)
			want := make([]calibration, len(seeds))
			for i, seed := range seeds {
				want[i] = generate(t, g, seed, nil)
			}
			for i, seed := range seeds[:2] {
				if got := generate(t, g, seed, routing.NewPathCache(g)); got != want[i] {
					t.Fatalf("seed %d: fresh cache gave %+v, no cache %+v", seed, got, want[i])
				}
			}

			// Pre-warm one shared cache with work no seed under test does.
			// 1.15x the calibrated load still fits under 10% headroom
			// (0.77 * 1.15 < 0.9), so LatencyOpt does not grind through
			// its growth rounds on traffic that cannot fit.
			shared := routing.NewPathCache(g)
			warm, err := tmgen.Generate(g, tmgen.Config{Seed: 1000, Cache: shared})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []routing.Scheme{
				routing.LatencyOpt{Cache: shared, Headroom: 0.1},
				routing.MinMax{Cache: shared},
				routing.B4{Cache: shared},
			} {
				if _, err := s.Place(g, warm.Matrix.Scale(1.15)); err != nil {
					t.Fatalf("warming with %s: %v", s.Name(), err)
				}
			}

			got := make([]calibration, len(seeds))
			var wg sync.WaitGroup
			for i, seed := range seeds {
				wg.Add(1)
				go func(i int, seed int64) {
					defer wg.Done()
					got[i] = generate(t, g, seed, shared)
				}(i, seed)
			}
			wg.Wait()
			for i, seed := range seeds {
				if got[i] != want[i] {
					t.Errorf("seed %d: shared warm cache gave %+v, no cache %+v", seed, got[i], want[i])
				}
			}
		})
	}
}

// TestGenerateSetSharesOneCache: a set equals its matrices generated one
// by one, with or without a caller-supplied cache.
func TestGenerateSetSharesOneCache(t *testing.T) {
	g := zooGraph(t, "wheel-16")
	cfg := tmgen.Config{Seed: 40}
	set, err := tmgen.GenerateSet(g, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = routing.NewPathCache(g)
	cached, err := tmgen.GenerateSet(g, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range set {
		one, err := tmgen.Generate(g, tmgen.Config{Seed: 40 + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		want := store.MatrixDigest(g, one.Matrix)
		if store.MatrixDigest(g, set[i]) != want || store.MatrixDigest(g, cached[i]) != want {
			t.Fatalf("matrix %d of the set differs from Generate with seed %d", i, 40+i)
		}
	}
}

// benchNets are the place_cold workload's topologies.
var benchNets = []string{"ring-16", "wheel-16", "tree-2x4"}

var benchSink *tmgen.Result

// BenchmarkGenerateMatrix is the ladder's matrix rung: one calibrated
// matrix on each place_cold net. cold gives every Generate a never-used
// PathCache (what a never-seen topology pays, first k-shortest-path
// enumeration included); warm reuses one cache per net, which is what
// backend.Local and sweep.Run do from a net's second matrix on.
func BenchmarkGenerateMatrix(b *testing.B) {
	graphs := make([]*graph.Graph, len(benchNets))
	for i, name := range benchNets {
		graphs[i] = zooGraph(b, name)
	}
	run := func(b *testing.B, cacheFor func(i int) *routing.PathCache) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for i, g := range graphs {
				res, err := tmgen.Generate(g, tmgen.Config{Seed: int64(n), Cache: cacheFor(i)})
				if err != nil {
					b.Fatal(fmt.Errorf("%s: %w", g.Name(), err))
				}
				benchSink = res
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		run(b, func(int) *routing.PathCache { return nil })
	})
	b.Run("warm", func(b *testing.B) {
		caches := make([]*routing.PathCache, len(graphs))
		for i, g := range graphs {
			caches[i] = routing.NewPathCache(g)
			if _, err := tmgen.Generate(g, tmgen.Config{Seed: -1, Cache: caches[i]}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		run(b, func(i int) *routing.PathCache { return caches[i] })
	})
}
