package backend

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"lowlat/internal/engine"
	"lowlat/internal/obs"
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

// counters is the atomic counter block Local and Store share.
type counters struct {
	storeHits atomic.Int64
	memoHits  atomic.Int64
	computed  atomic.Int64
	rejected  atomic.Int64
	inflight  atomic.Int64
	errors    atomic.Int64
}

// Local is the compute-capable backend: engine placements over a shared
// solver cache against a writable store. It is the one compute path in
// the repository — the serving daemon's /v1/place and (by default) the
// sweep orchestrator's missing-cell dispatch both resolve here, so a
// cell computed through either lands on the same content key with the
// same persistence semantics.
type Local struct {
	st     *store.Store
	opts   LocalOptions
	solver *routing.SolverCache
	sem    chan struct{} // admission slots (MaxInflight)
	work   chan struct{} // compute slots (Workers)
	c      counters
	obs    *obs.Registry
}

// NewLocal builds a Local backend over an open store. The store may be
// writable (computed cells persist) or read-only (Place then serves
// stored cells and fails with ErrNotStored for cells that would need
// computing — though NewStore is the cheaper fit for that mount).
func NewLocal(st *store.Store, opts LocalOptions) *Local {
	opts = opts.withDefaults()
	return &Local{
		st:     st,
		opts:   opts,
		solver: routing.NewSolverCache(),
		sem:    make(chan struct{}, opts.MaxInflight),
		work:   make(chan struct{}, opts.Workers),
		obs:    obs.NewRegistry(),
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
		l.c.storeHits.Add(1)
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
		l.c.errors.Add(1)
	}
	return r, src, err
}

func (l *Local) place(ctx context.Context, spec store.CellSpec) (store.Result, Source, error) {
	spec = spec.Normalized()
	scheme, err := CheckSpec(spec)
	if err != nil {
		return store.Result{}, "", err
	}
	net, err := sweep.ResolveNet(spec.Net)
	if err != nil {
		return store.Result{}, "", specf("%v", err)
	}
	g := net.Graph

	// Calibration memo: the stored matrix digest yields the content key
	// without re-running the generation LPs — warm-up over a store a
	// sweep filled stays compute-free. A memo hit only counts when it
	// actually spared the generation, i.e. when the cell itself is held;
	// otherwise the fall-through pays the solves regardless.
	if md, ok := l.st.Memo(store.MemoKeyFor(g, spec.Seed, spec.Load, spec.Locality)); ok {
		k := store.CellKey{
			Graph:  store.Digest(g.Fingerprint()),
			Matrix: md,
			Scheme: scheme.Name(),
			Config: store.ConfigDigest(scheme),
		}
		if res, hit := l.storeGet(ctx, k); hit {
			l.c.memoHits.Add(1)
			l.c.storeHits.Add(1)
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
		l.c.rejected.Add(1)
		return store.Result{}, "", fmt.Errorf("%w (%d in flight)", ErrOverloaded, l.opts.MaxInflight)
	}
	defer func() { <-l.sem }()
	l.c.inflight.Add(1)
	defer l.c.inflight.Add(-1)

	// Worker slot: bounds actual engine work to Workers, however many
	// computations were admitted.
	l.work <- struct{}{}
	defer func() { <-l.work }()

	t0 := time.Now()
	m, err := sweep.GenerateMatrixCached(g, spec.Seed, spec.Load, spec.Locality, l.st, l.solver.ForGraph(g))
	l.obs.Observe(ctx, obs.StageMatrix, time.Since(t0))
	if err != nil {
		return store.Result{}, "", fmt.Errorf("generate matrix: %w", err)
	}
	key := store.KeyFor(g, m, scheme)
	// A store predating its memo can hold the cell even on a memo miss.
	if res, hit := l.storeGet(ctx, key); hit {
		l.c.storeHits.Add(1)
		return res, SourceStore, nil
	}

	res, err := l.compute(ctx, sweep.Cell{
		Key: key,
		Meta: store.Meta{
			Net:      net.Name,
			Class:    net.Class,
			Seed:     spec.Seed,
			Scheme:   scheme.Name(),
			Headroom: routing.Headroom(scheme),
			Load:     spec.Load,
			Locality: spec.Locality,
		},
		Scenario: engine.Scenario{
			Tag:    fmt.Sprintf("%s/s%d/%s", net.Name, spec.Seed, scheme.Name()),
			Graph:  g,
			Matrix: m,
			Scheme: scheme,
		},
	})
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

// compute runs one placement through the engine (panic recovery: a
// solver crash surfaces as an error, not a dead process) against the
// backend's shared solver cache. The computation deliberately runs on a
// background context: in the serving daemon the leader of a coalesced
// flight computes for its followers, so a disconnecting leader must not
// abort them. ctx is used only to carry the caller's trace into the
// solve-stage observation, never for cancellation.
func (l *Local) compute(ctx context.Context, c sweep.Cell) (store.Result, error) {
	//nolint:ctxflow // coalesced flights outlive their leader: followers must not lose the solve when the leader disconnects
	out := <-engine.Stream(context.Background(), 1, []sweep.Cell{c},
		func(_ context.Context, _ int, c sweep.Cell) (store.Result, error) {
			if l.opts.OnPlace != nil {
				l.opts.OnPlace(c.Key)
			}
			l.c.computed.Add(1)
			t0 := time.Now()
			p, err := l.solver.Place(c.Scenario.Scheme, c.Scenario.Graph, c.Scenario.Matrix)
			l.obs.Observe(ctx, obs.StageSolve, time.Since(t0))
			if err != nil {
				return store.Result{}, fmt.Errorf("%s: %w", c.Scenario.Tag, err)
			}
			return store.Result{Key: c.Key, Meta: c.Meta, Metrics: store.MetricsOf(p)}, nil
		})
	return out.Value, out.Err
}

// Stats snapshots the backend.
func (l *Local) Stats() Stats {
	return Stats{
		Backend:     "local",
		Cells:       l.st.Len(),
		MemoEntries: l.st.MemoLen(),
		ReadOnly:    l.st.ReadOnly(),
		StoreHits:   l.c.storeHits.Load(),
		MemoHits:    l.c.memoHits.Load(),
		Computed:    l.c.computed.Load(),
		Rejected:    l.c.rejected.Load(),
		InFlight:    l.c.inflight.Load(),
		Errors:      l.c.errors.Load(),
		Telemetry:   l.obs.Snapshot(),
	}
}
