package backend

import (
	"context"
	"sync/atomic"
	"time"

	"lowlat/internal/obs"
	"lowlat/internal/store"
)

// CachedOptions tunes a Cached backend. The zero value caches 512
// entries.
type CachedOptions struct {
	// Size bounds each of the two LRUs — the content-key response cache
	// and the spec→key shortcut — in entries (default 512).
	Size int
}

func (o CachedOptions) withDefaults() CachedOptions {
	if o.Size <= 0 {
		o.Size = 512
	}
	return o
}

// Cached wraps any placement backend with the serving stack's one read
// tier: a bounded LRU over content keys, a request-spec→content-key
// shortcut, and coalescing of concurrent Place calls for one spec onto
// a single inner dispatch. It is used on either side of the wire:
// serve.Server mounts it between its HTTP handlers and the backend it
// fronts, and a client (a front daemon, a sweep worker, `lowlat
// -remote-cache`) wraps its serve.Remote in it to absorb hot-key
// traffic locally instead of hammering the ring owner.
//
// Reads can serve stale answers only in the sense that a cell re-put
// with different contents under the same key is not seen until
// eviction; cells are content-addressed, so in practice a hit is the
// answer. Writes (Put) pass through and refresh the cache. Answers
// without a content key (predicted estimates) are never cached: under
// the zero key every one of them would collide onto a single slot.
//
// The leader of a flight dispatches on its own context: a library
// caller owns its context, so cancelling the leader cancels the
// dispatch and its followers receive the leader's error. Followers stop
// waiting when their own context dies. A caller that wants the flight
// to outlive its leader (the daemon does) puts that policy in the
// backend it hands to NewCached. A panic under the leader propagates to
// the leader's caller; its followers receive an error and the spec is
// released, so the next Place dispatches fresh.
type Cached struct {
	Forward

	lru     *lruCache[store.CellKey, store.Result] // content key -> result
	keys    *lruCache[string, store.CellKey]       // normalized spec string -> content key
	flights *flightGroup                           // in-progress Place dispatches by spec

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	obs       *obs.Registry
}

// NewCached wraps inner with the cache tier.
func NewCached(inner Backend, opts CachedOptions) *Cached {
	opts = opts.withDefaults()
	return &Cached{
		Forward: NewForward(inner),
		lru:     newLRU[store.CellKey, store.Result](opts.Size),
		keys:    newLRU[string, store.CellKey](opts.Size),
		flights: newFlightGroup(),
		obs:     obs.NewRegistry(),
	}
}

// Lookup serves a content key from the LRU when it can, filling the
// cache from the wrapped backend on a miss.
func (c *Cached) Lookup(k store.CellKey) (store.Result, bool) {
	r, _, ok := c.LookupSourced(k)
	return r, ok
}

// LookupSourced is Lookup with provenance: SourceCache for an LRU hit,
// SourceStore for a key the wrapped backend held.
func (c *Cached) LookupSourced(k store.CellKey) (store.Result, Source, bool) {
	if r, ok := c.lru.get(k); ok {
		c.hits.Add(1)
		return r, SourceCache, true
	}
	c.misses.Add(1)
	r, ok := c.inner.Lookup(k)
	if !ok {
		return store.Result{}, "", false
	}
	c.lru.add(k, r)
	return r, SourceStore, true
}

// Place resolves one cell, serving repeats from the cache and coalescing
// concurrent duplicates onto one inner dispatch.
func (c *Cached) Place(ctx context.Context, spec store.CellSpec) (store.Result, error) {
	r, _, err := c.PlaceSourced(ctx, spec)
	return r, err
}

// PlaceSourced is Place with provenance: SourceCache for an LRU hit,
// the inner backend's source otherwise.
func (c *Cached) PlaceSourced(ctx context.Context, spec store.CellSpec) (store.Result, Source, error) {
	spec = spec.Normalized()
	rk := spec.String()
	// Hot path: a spec served before maps straight to its content key —
	// no graph build, no flight.
	t0 := time.Now()
	if ck, ok := c.keys.get(rk); ok {
		if r, hit := c.lru.get(ck); hit {
			c.hits.Add(1)
			c.obs.Hist(obs.StageCachedPlace).Record(time.Since(t0))
			return r, SourceCache, nil
		}
	}
	c.misses.Add(1)

	out, err := c.flights.do(ctx, rk, func() (outcome, error) {
		res, src, err := PlaceSourced(ctx, c.inner, spec)
		if err != nil {
			return outcome{}, err
		}
		if res.Key != (store.CellKey{}) {
			c.keys.add(rk, res.Key)
			c.lru.add(res.Key, res)
		}
		return outcome{source: src, result: res}, nil
	}, func() { c.coalesced.Add(1) })
	return out.result, out.source, err
}

// Put writes through to the wrapped backend and refreshes the cache, so
// a replicated or healed cell serves hot immediately.
func (c *Cached) Put(r store.Result) error {
	if err := c.Forward.Put(r); err != nil {
		return err
	}
	c.lru.add(r.Key, r)
	return nil
}

// CacheStats is the tier's own counter block: answers served from the
// LRU, requests that consulted it and fell through, Place calls that
// joined another caller's dispatch, and the LRU's current entry count.
type CacheStats struct {
	Hits, Misses, Coalesced int64
	Entries                 int
}

// CacheStats snapshots the tier's counters without touching the wrapped
// backend — what a daemon reports beside its backend's own stats.
func (c *Cached) CacheStats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Entries:   c.lru.len(),
	}
}

// Stats snapshots the wrapped backend and overlays the cache counters.
func (c *Cached) Stats() Stats {
	s := c.inner.Stats()
	cs := c.CacheStats()
	s.Backend = "cached+" + s.Backend
	s.CacheHits = cs.Hits
	s.CacheMisses = cs.Misses
	s.Coalesced = cs.Coalesced
	s.Telemetry.Merge(c.obs.Snapshot())
	return s
}
