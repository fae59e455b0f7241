package backend

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lowlat/internal/store"
)

func cachedOverLocal(t *testing.T, onPlace func(store.CellKey)) (*Cached, *store.Store) {
	t.Helper()
	st, err := store.OpenSharded(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	l := NewLocal(st, LocalOptions{Workers: 1, OnPlace: onPlace})
	return NewCached(l, CachedOptions{Size: 8}), st
}

// TestCachedPlaceHitMissCoalesce pins the client-side tier's contract: a
// repeat Place for one spec is an LRU hit with no inner dispatch, and N
// concurrent Places for one cold spec coalesce onto a single engine
// invocation.
func TestCachedPlaceHitMissCoalesce(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var invocations atomic.Int64
	c, _ := cachedOverLocal(t, func(store.CellKey) {
		invocations.Add(1)
		select {
		case entered <- struct{}{}:
			<-release
		default:
		}
	})
	spec := store.CellSpec{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1}

	const clients = 4
	var wg sync.WaitGroup
	srcs := make([]Source, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, srcs[i], errs[i] = c.PlaceSourced(context.Background(), spec)
		}(i)
	}
	<-entered
	// Wait until every non-leader has joined the flight; the flight map is
	// the only dispatch path, so once coalesced reaches clients-1 nobody
	// else can reach the engine.
	deadline := time.After(10 * time.Second)
	for c.Stats().Coalesced < clients-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d of %d clients coalesced", c.Stats().Coalesced, clients-1)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
	}
	if n := invocations.Load(); n != 1 {
		t.Fatalf("%d engine invocations for one coalesced spec, want 1", n)
	}

	// The answer is now cached: a repeat is SourceCache, still 1 invocation.
	_, src, err := c.PlaceSourced(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceCache {
		t.Fatalf("repeat place source = %q, want %q", src, SourceCache)
	}
	if n := invocations.Load(); n != 1 {
		t.Fatalf("repeat place re-invoked the engine (%d invocations)", n)
	}
	st := c.Stats()
	if st.Backend != "cached+local" {
		t.Fatalf("stats backend = %q, want cached+local", st.Backend)
	}
	if st.CacheHits != 1 || st.Coalesced != clients-1 {
		t.Fatalf("stats hits=%d coalesced=%d, want 1 and %d", st.CacheHits, st.Coalesced, clients-1)
	}
}

// TestCachedPutWriteThrough pins the write path: Put persists through the
// wrapped backend and refreshes the cache, so the next Lookup is a hit.
func TestCachedPutWriteThrough(t *testing.T) {
	c, st := cachedOverLocal(t, nil)
	res := store.Result{
		Key:  store.CellKey{Graph: 1, Matrix: 2, Scheme: "sp", Config: 3},
		Meta: store.Meta{Net: "synthetic", Scheme: "sp", Locality: 1},
	}
	if err := c.Put(res); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(res.Key); !ok {
		t.Fatal("put did not write through to the store")
	}
	before := c.Stats().CacheHits
	if got, ok := c.Lookup(res.Key); !ok || got != res {
		t.Fatalf("lookup after put = %+v, %v", got, ok)
	}
	if c.Stats().CacheHits != before+1 {
		t.Fatal("lookup after put was not served from the cache")
	}
}

// panicOnce is a backend whose first Place panics once a follower has
// joined the flight, and whose later Places answer normally.
type panicOnce struct {
	Backend
	c      *Cached
	placed atomic.Int64
}

func (p *panicOnce) Place(context.Context, store.CellSpec) (store.Result, error) {
	if p.placed.Add(1) == 1 {
		for p.c.Stats().Coalesced < 1 {
			time.Sleep(time.Millisecond)
		}
		panic("solver exploded")
	}
	return store.Result{Key: store.CellKey{Graph: 1, Matrix: 2, Scheme: "sp", Config: 3}}, nil
}

// TestCachedLeaderPanicFailsFollowers pins the tier's survival property
// end to end: the wrapped backend panics under a flight's leader (whose
// caller recovers, as net/http does for a handler and engine.Stream for
// a sweep worker); the follower must get an error — not a zero result
// with a nil error — and the spec must be released, so the next Place
// dispatches fresh instead of joining a flight that will never finish.
func TestCachedLeaderPanicFailsFollowers(t *testing.T) {
	inner := &panicOnce{Backend: NewLocal(readOnly(t, openStore(t)), LocalOptions{})}
	c := NewCached(inner, CachedOptions{})
	inner.c = c
	spec := store.CellSpec{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1}

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.Place(context.Background(), spec)
	}()
	// The follower starts once the leader is inside the backend — its
	// flight is registered by then, so this call can only join it — and
	// the leader holds the panic until the join is counted.
	for inner.placed.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	res, err := c.Place(context.Background(), spec)
	if r := <-leaderDone; r == nil {
		t.Fatal("leader panic did not propagate to the leader's caller")
	}
	if err == nil {
		t.Fatalf("follower of a panicked leader got a nil error (result %+v)", res)
	}
	if got := c.Stats().Coalesced; got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}

	// The spec is free again: a fresh Place reaches the backend.
	res, err = c.Place(context.Background(), spec)
	if err != nil || res.Key == (store.CellKey{}) {
		t.Fatalf("post-panic place = %+v, %v; want a fresh dispatch", res, err)
	}
	if n := inner.placed.Load(); n != 2 {
		t.Fatalf("backend saw %d places, want 2 (the panicked one and the fresh one)", n)
	}
}

// TestCachedStatsReportEntries: Cached.Stats gauges its LRU, so a client
// that wraps a remote backend sees the tier's occupancy the way a daemon
// reports its own, and the gauge stays at the LRU's bound.
func TestCachedStatsReportEntries(t *testing.T) {
	c, _ := cachedOverLocal(t, nil)
	if got := c.Stats().CachedEntries; got != 0 {
		t.Fatalf("fresh tier reports %d cached entries, want 0", got)
	}
	for _, net := range []string{"star-6", "ring-8"} {
		if _, err := c.Place(context.Background(), store.CellSpec{Net: net, Seed: 1, Scheme: "sp", Locality: 1}); err != nil {
			t.Fatal(err)
		}
		if got, want := c.Stats().CachedEntries, c.lru.Len(); got != want || got == 0 {
			t.Fatalf("Stats().CachedEntries = %d, LRU holds %d", got, want)
		}
	}
}
