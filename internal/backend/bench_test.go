package backend_test

import (
	"context"
	"testing"

	"lowlat/internal/backend"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// The PR's speedup claim, tracked across PRs by the CI bench job:
// BenchmarkPredictivePlace answers trained-region placements by IDW
// interpolation over the surface index — no graph construction, no
// matrix generation, no solver — and must stay >= 100x faster than
// BenchmarkExactPlace, the full exact path on the same tiny network.

// BenchmarkExactPlace measures the exact solver path end to end: every
// iteration places a never-before-seen cell (fresh matrix seed), so
// each Place pays net resolution, matrix calibration and a placement
// solve.
func BenchmarkExactPlace(b *testing.B) {
	st, err := store.OpenSharded(b.TempDir(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	local := backend.NewLocal(st, backend.LocalOptions{Workers: 1})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := store.CellSpec{
			Net: "star-6", Seed: int64(1000 + i), Scheme: "sp",
			Load: 0.65, Locality: 1,
		}
		if _, err := local.Place(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictivePlace measures the fast path: a surface trained
// from a small sweep answers an interior operating point for unseen
// seeds by interpolation.
func BenchmarkPredictivePlace(b *testing.B) {
	st, err := store.OpenSharded(b.TempDir(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for _, load := range []float64{0.6, 0.7} {
		grid := sweep.Grid{Nets: []string{"star-6"}, Seeds: []int64{1, 2}, Schemes: []string{"sp"}, Load: load}
		if _, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	local := backend.NewLocal(st, backend.LocalOptions{Workers: 1})
	pb := backend.NewPredictive(local, backend.PredictiveOptions{})
	defer pb.Close()
	pb.Train(local.Query(sweep.Filter{}))

	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := store.CellSpec{
			Net: "star-6", Seed: int64(1000 + i), Scheme: "sp",
			Load: 0.65, Locality: 1,
		}
		res, src, err := pb.PlaceSourced(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if src != backend.SourcePredicted {
			b.Fatalf("iteration %d fell off the fast path: source %q", i, src)
		}
		if res.Metrics.Stretch < 1 {
			b.Fatalf("bogus prediction: %+v", res.Metrics)
		}
	}
}

// BenchmarkCachedPlaceHit is the ladder's cache-tier rung: one Place
// answered by Cached's LRU — spec normalisation, the spec→key shortcut,
// the content-key lookup — with nothing beneath it consulted.
func BenchmarkCachedPlaceHit(b *testing.B) {
	st, err := store.OpenSharded(b.TempDir(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	cached := backend.NewCached(backend.NewLocal(st, backend.LocalOptions{Workers: 1}), backend.CachedOptions{})
	ctx := context.Background()
	spec := store.CellSpec{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1}
	if _, err := cached.Place(ctx, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, src, err := cached.PlaceSourced(ctx, spec)
		if err != nil || src != backend.SourceCache {
			b.Fatalf("iteration %d: source %q, %v", i, src, err)
		}
	}
}

// BenchmarkLocalStoreHit is the ladder's store-hit rung: one Place of a
// stored cell through Local — spec check, the net term's cached
// topology, the calibration memo, the store read — the path a request
// takes when the cache tier above misses but the store holds the cell.
func BenchmarkLocalStoreHit(b *testing.B) {
	st, err := store.OpenSharded(b.TempDir(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	local := backend.NewLocal(st, backend.LocalOptions{Workers: 1})
	ctx := context.Background()
	spec := store.CellSpec{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1}
	if _, err := local.Place(ctx, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, src, err := local.PlaceSourced(ctx, spec)
		if err != nil || src != backend.SourceStore {
			b.Fatalf("iteration %d: source %q, %v", i, src, err)
		}
	}
}
