package backend

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"lowlat/internal/engine"
	"lowlat/internal/obs"
	"lowlat/internal/reuse"
	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// LocalOptions tunes a Local backend. The zero value computes with one
// engine worker per CPU and a 4x-workers admission bound.
type LocalOptions struct {
	// Workers bounds concurrent engine work — matrix generation and
	// placement solves (0 = one per CPU).
	Workers int
	// MaxInflight bounds how many Place computations may be admitted at
	// once (computing or waiting for a worker); beyond it Place fails
	// with ErrOverloaded. Default 4x the resolved worker count. Places
	// answered from the store never consume a slot.
	MaxInflight int
	// OnPlace, when non-nil, runs just before each engine invocation —
	// the precise computation count. Tests hang invocation counting and
	// deterministic barriers off it.
	OnPlace func(key store.CellKey)
}

func (o LocalOptions) withDefaults() LocalOptions {
	o.Workers = engine.DefaultWorkers(o.Workers)
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * o.Workers
	}
	return o
}

// Local is the store-backed backend: engine placements over a shared
// solver cache against a store. Over a writable store it computes and
// persists missing cells; over one opened with store.OpenReadOnly it is
// the read-only mount, serving stored cells and failing with
// ErrNotStored for any cell that would need computing. Its cells are
// built, keyed and solved by the same sweep.NewCell, store.KeyForDigest
// and sweep.Cell.Solve a sweep's in-process dispatch uses, so a cell
// computed through either lands on the same content key with the same
// Meta and Metrics.
type Local struct {
	st     *store.Store
	opts   LocalOptions
	solver *routing.SolverCache
	sem    chan struct{} // admission slots (MaxInflight)
	work   chan struct{} // compute slots (Workers)
	obs    *obs.Registry
	nets   *reuse.LRU[string, sweep.NetSpec] // net term -> resolved topology

	storeHits, memoHits, computed, rejected, inflight, errors atomic.Int64
}

// NewLocal builds a Local backend over an open store, writable (computed
// cells persist) or read-only (Place never computes).
func NewLocal(st *store.Store, opts LocalOptions) *Local {
	opts = opts.withDefaults()
	return &Local{
		st:     st,
		opts:   opts,
		solver: routing.NewSolverCache(),
		sem:    make(chan struct{}, opts.MaxInflight),
		work:   make(chan struct{}, opts.Workers),
		obs:    obs.NewRegistry(),
		nets:   reuse.NewLRU[string, sweep.NetSpec](netCacheCapacity),
	}
}

// Store exposes the backing store (the serving layer reports its gauges
// and the CLI compacts it).
func (l *Local) Store() *store.Store { return l.st }

// Put checkpoints an externally computed result — the write half of the
// experiments drivers' backend seam, for callers that solve their own
// scenarios (figure drivers with per-topology matrix sets) but still
// want content-addressed persistence.
func (l *Local) Put(r store.Result) error { return l.st.Put(r) }

// Lookup returns the stored result for a content key.
func (l *Local) Lookup(k store.CellKey) (store.Result, bool) {
	r, ok := l.storeGet(context.Background(), k)
	if ok {
		l.storeHits.Add(1)
	}
	return r, ok
}

// storeGet is st.Get with the store_read stage recorded.
func (l *Local) storeGet(ctx context.Context, k store.CellKey) (store.Result, bool) {
	t0 := time.Now()
	r, ok := l.st.Get(k)
	l.obs.Observe(ctx, obs.StageStoreRead, time.Since(t0))
	return r, ok
}

// Query lists stored cells matching the filter.
func (l *Local) Query(f sweep.Filter) []store.Result {
	return sweep.Query(l.st, f)
}

// Keys enumerates the store's content keys — the inventory anti-entropy
// sweeps compare across replicas.
func (l *Local) Keys(_ context.Context) ([]store.CellKey, error) {
	return l.st.Keys(), nil
}

// KeyDigest folds the store's key set into one order-independent digest
// plus the count, the cheap half of the anti-entropy exchange.
func (l *Local) KeyDigest(_ context.Context) (store.Digest, int, error) {
	keys := l.st.Keys()
	return store.DigestKeys(keys), len(keys), nil
}

// Place resolves one cell, computing and persisting it on a store miss.
func (l *Local) Place(ctx context.Context, spec store.CellSpec) (store.Result, error) {
	r, _, err := l.PlaceSourced(ctx, spec)
	return r, err
}

// PlaceSourced is Place with provenance: SourceStore for a persisted
// cell, SourceComputed for a fresh engine run.
func (l *Local) PlaceSourced(ctx context.Context, spec store.CellSpec) (store.Result, Source, error) {
	r, src, err := l.place(ctx, spec)
	if err != nil {
		l.errors.Add(1)
	}
	return r, src, err
}

func (l *Local) place(ctx context.Context, spec store.CellSpec) (store.Result, Source, error) {
	spec = spec.Normalized()
	scheme, err := CheckSpec(spec)
	if err != nil {
		return store.Result{}, "", err
	}
	net, err := l.resolveNet(spec.Net)
	if err != nil {
		return store.Result{}, "", err
	}
	g := net.Graph

	// Calibration memo: the stored matrix digest yields the content key
	// without re-running the generation LPs — warm-up over a store a
	// sweep filled stays compute-free. A memo hit only counts when it
	// actually spared the generation, i.e. when the cell itself is held;
	// otherwise the fall-through pays the solves regardless.
	if md, ok := l.st.Memo(store.MemoKeyFor(g, spec.Seed, spec.Load, spec.Locality)); ok {
		if res, hit := l.storeGet(ctx, store.KeyForDigest(g, md, scheme)); hit {
			l.memoHits.Add(1)
			l.storeHits.Add(1)
			return res, SourceStore, nil
		}
	}

	// The cell needs computing (or at least its matrix generating, which
	// costs the same calibration solves): admission-control it.
	if l.st.ReadOnly() {
		return store.Result{}, "", fmt.Errorf("store is read-only: %s: %w", spec.Net, ErrNotStored)
	}
	select {
	case l.sem <- struct{}{}:
	default:
		l.rejected.Add(1)
		return store.Result{}, "", fmt.Errorf("%w (%d in flight)", ErrOverloaded, l.opts.MaxInflight)
	}
	defer func() { <-l.sem }()
	l.inflight.Add(1)
	defer l.inflight.Add(-1)

	// Worker slot: bounds actual engine work to Workers, however many
	// computations were admitted.
	select {
	case l.work <- struct{}{}:
	case <-ctx.Done():
		return store.Result{}, "", ctx.Err()
	}
	defer func() { <-l.work }()

	t0 := time.Now()
	gen, md, err := sweep.GenerateMatrixCached(g, spec.Seed, spec.Load, spec.Locality, l.st, l.solver.ForGraph(g))
	l.obs.Observe(ctx, obs.StageMatrix, time.Since(t0))
	if err != nil {
		return store.Result{}, "", fmt.Errorf("generate matrix: %w", err)
	}
	key := store.KeyForDigest(g, md, scheme)
	// A store predating its memo can hold the cell even on a memo miss.
	if res, hit := l.storeGet(ctx, key); hit {
		l.storeHits.Add(1)
		return res, SourceStore, nil
	}

	res, err := l.compute(ctx, sweep.NewCell(net, spec.Seed, scheme, spec.Load, spec.Locality, key, gen.Matrix))
	if err != nil {
		return store.Result{}, "", err
	}
	t0 = time.Now()
	err = l.st.Put(res)
	l.obs.Observe(ctx, obs.StageStoreWrite, time.Since(t0))
	if err != nil {
		return store.Result{}, "", fmt.Errorf("persist cell: %w", err)
	}
	return res, SourceComputed, nil
}

// resolveNet resolves a net term, building its topology once for as
// long as the term stays among the netCacheCapacity most recently used.
// Requests share the graph: it is immutable once built.
func (l *Local) resolveNet(term string) (sweep.NetSpec, error) {
	if net, ok := l.nets.Get(term); ok {
		return net, nil
	}
	net, err := sweep.ResolveNet(term)
	if err != nil {
		return sweep.NetSpec{}, specf("%v", err)
	}
	return l.nets.GetOrAdd(term, net), nil
}

// compute runs one placement through the engine (panic recovery: a
// solver crash surfaces as an error, not a dead process) against the
// backend's shared solver cache, on ctx: a context that dies before the
// solve starts fails the call. A flight that must outlive the request
// that led it is the caller's policy (the daemon's serve.detached).
func (l *Local) compute(ctx context.Context, c sweep.Cell) (store.Result, error) {
	out, ok := <-engine.Stream(ctx, 1, []sweep.Cell{c},
		func(_ context.Context, _ int, c sweep.Cell) (store.Result, error) {
			if l.opts.OnPlace != nil {
				l.opts.OnPlace(c.Key)
			}
			l.computed.Add(1)
			t0 := time.Now()
			res, err := c.Solve(l.solver)
			l.obs.Observe(ctx, obs.StageSolve, time.Since(t0))
			return res, err
		})
	if !ok {
		// ctx died before the cell was dispatched.
		return store.Result{}, ctx.Err()
	}
	return out.Value, out.Err
}

// Stats snapshots the backend. A read-only mount reports itself as the
// "store" backend.
func (l *Local) Stats() Stats {
	name := "local"
	if l.st.ReadOnly() {
		name = "store"
	}
	return Stats{
		Backend:     name,
		StoreCells:  l.st.Len(),
		MemoEntries: l.st.MemoLen(),
		ReadOnly:    l.st.ReadOnly(),
		StoreHits:   l.storeHits.Load(),
		MemoHits:    l.memoHits.Load(),
		Computed:    l.computed.Load(),
		Rejected:    l.rejected.Load(),
		InFlight:    l.inflight.Load(),
		Errors:      l.errors.Load(),
		Telemetry:   l.obs.Snapshot(),
	}
}
