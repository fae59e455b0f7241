package backend

import (
	"context"
	"fmt"
	"time"

	"lowlat/internal/obs"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// Store is the read-only backend: lookups and queries over a mounted
// result store, never any computation. Place serves cells the store
// already holds (resolving spec to content key through the calibration
// memo, so no matrix is ever regenerated) and fails with ErrNotStored
// otherwise. Any number of Store backends can mount one directory beside
// a writing process — the natural shape for read replicas over a store
// one sweep fills.
type Store struct {
	st  *store.Store
	c   counters
	obs *obs.Registry
}

// NewStore builds a read-only backend over an open store (typically one
// opened with store.OpenReadOnly; a writable store works too and is
// simply never written).
func NewStore(st *store.Store) *Store {
	return &Store{st: st, obs: obs.NewRegistry()}
}

// Store exposes the backing store.
func (b *Store) Store() *store.Store { return b.st }

// Lookup returns the stored result for a content key.
func (b *Store) Lookup(k store.CellKey) (store.Result, bool) {
	r, ok := b.storeGet(context.Background(), k)
	if ok {
		b.c.storeHits.Add(1)
	}
	return r, ok
}

// storeGet is st.Get with the store_read stage recorded.
func (b *Store) storeGet(ctx context.Context, k store.CellKey) (store.Result, bool) {
	t0 := time.Now()
	r, ok := b.st.Get(k)
	b.obs.Observe(ctx, obs.StageStoreRead, time.Since(t0))
	return r, ok
}

// Query lists stored cells matching the filter.
func (b *Store) Query(f sweep.Filter) []store.Result {
	return sweep.Query(b.st, f)
}

// Keys enumerates the store's content keys. Read-only mounts still serve
// the anti-entropy read side: a cluster can copy cells *from* them even
// though it can never heal cells *onto* them.
func (b *Store) Keys(_ context.Context) ([]store.CellKey, error) {
	return b.st.Keys(), nil
}

// KeyDigest folds the store's key set into one order-independent digest
// plus the count.
func (b *Store) KeyDigest(_ context.Context) (store.Digest, int, error) {
	keys := b.st.Keys()
	return store.DigestKeys(keys), len(keys), nil
}

// Place serves a stored cell or fails with ErrNotStored: this backend
// never computes. The spec resolves to a content key through the
// calibration memo alone — a store without a memo entry for the spec's
// operating point cannot be searched without generating the matrix,
// which is exactly the work a read-only mount refuses.
func (b *Store) Place(ctx context.Context, spec store.CellSpec) (store.Result, error) {
	r, _, err := b.PlaceSourced(ctx, spec)
	return r, err
}

// PlaceSourced is Place with provenance (always SourceStore on success).
func (b *Store) PlaceSourced(ctx context.Context, spec store.CellSpec) (store.Result, Source, error) {
	spec = spec.Normalized()
	scheme, err := CheckSpec(spec)
	if err != nil {
		b.c.errors.Add(1)
		return store.Result{}, "", err
	}
	net, err := sweep.ResolveNet(spec.Net)
	if err != nil {
		b.c.errors.Add(1)
		return store.Result{}, "", specf("%v", err)
	}
	g := net.Graph
	if md, ok := b.st.Memo(store.MemoKeyFor(g, spec.Seed, spec.Load, spec.Locality)); ok {
		k := store.CellKey{
			Graph:  store.Digest(g.Fingerprint()),
			Matrix: md,
			Scheme: scheme.Name(),
			Config: store.ConfigDigest(scheme),
		}
		if res, hit := b.storeGet(ctx, k); hit {
			b.c.memoHits.Add(1)
			b.c.storeHits.Add(1)
			return res, SourceStore, nil
		}
	}
	b.c.errors.Add(1)
	return store.Result{}, "", fmt.Errorf("store is read-only: %s: %w", spec.Net, ErrNotStored)
}

// Stats snapshots the backend.
func (b *Store) Stats() Stats {
	return Stats{
		Backend:     "store",
		Cells:       b.st.Len(),
		MemoEntries: b.st.MemoLen(),
		ReadOnly:    true,
		StoreHits:   b.c.storeHits.Load(),
		MemoHits:    b.c.memoHits.Load(),
		Errors:      b.c.errors.Load(),
		Telemetry:   b.obs.Snapshot(),
	}
}
