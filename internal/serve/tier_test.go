package serve

import (
	"context"
	"testing"

	"lowlat/internal/backend"
	"lowlat/internal/store"
)

// TestTierAccounting scripts one request sequence across the three
// endpoints that touch the cache tier and pins what /v1/stats counts
// for it: which requests are hits, which are misses, and what ends up
// cached. The numbers are the ones the daemon reported before the tier
// moved into backend.Cached.
func TestTierAccounting(t *testing.T) {
	s, c := newTestServer(t, backend.NewLocal(openStore(t), backend.LocalOptions{Workers: 1}), Options{})
	ctx := context.Background()
	req := PlaceRequest{Net: "star-6", Seed: 1, Scheme: "sp"}

	first, err := c.Place(ctx, req) // miss: computed, cached under spec and key
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(ctx, req); err != nil { // hit via the spec shortcut
		t.Fatal(err)
	}
	if _, err := c.Cell(ctx, first.Result.Key.String()); err != nil { // hit by key
		t.Fatal(err)
	}
	absent := store.CellKey{Graph: 1, Matrix: 2, Scheme: "sp", Config: 3}
	if _, err := c.Cell(ctx, absent.String()); err == nil { // miss, 404, nothing cached
		t.Fatal("lookup of an absent key succeeded")
	}
	pushed := store.Result{Key: absent, Meta: store.Meta{Net: "synthetic", Scheme: "sp", Locality: 1}}
	if err := c.Replicate(ctx, pushed); err != nil { // no lookup; warms the LRU
		t.Fatal(err)
	}
	if got, err := c.Cell(ctx, absent.String()); err != nil || got != pushed { // hit
		t.Fatalf("cell after replicate = %+v, %v", got, err)
	}
	if _, err := c.Place(ctx, PlaceRequest{Net: "ring-8", Seed: 1, Scheme: "sp"}); err != nil { // miss
		t.Fatal(err)
	}

	st := s.Stats()
	if st.CacheHits != 3 || st.CacheMisses != 3 || st.Coalesced != 0 || st.CachedEntries != 3 {
		t.Fatalf("hits=%d misses=%d coalesced=%d cached_entries=%d, want 3/3/0/3",
			st.CacheHits, st.CacheMisses, st.Coalesced, st.CachedEntries)
	}
	if st.PlaceRequests != 3 || st.CellLookups != 3 || st.Replications != 1 || st.Computed != 2 {
		t.Fatalf("places=%d cells=%d replications=%d computed=%d, want 3/3/1/2",
			st.PlaceRequests, st.CellLookups, st.Replications, st.Computed)
	}
	if st.Backend != "local" {
		t.Fatalf("stats backend = %q, want the fronted backend's own name", st.Backend)
	}
	if _, ok := st.Stages["cached_place"]; ok {
		t.Fatal("the mounted tier's private stage leaked into /v1/stats")
	}
}
