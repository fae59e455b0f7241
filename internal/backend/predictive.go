package backend

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"lowlat/internal/obs"
	"lowlat/internal/predict"
	"lowlat/internal/reuse"
	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// PredictiveOptions tunes a Predictive backend.
type PredictiveOptions struct {
	// Refine queues a background exact solve for every predicted answer:
	// the ground truth lands in the inner backend's store and replaces
	// the interpolated sample, so the surface self-corrects while
	// requests keep being answered in microseconds. Refinement is
	// best-effort — a full queue drops the request rather than blocking
	// the serving path.
	Refine bool
	// OnRefine, when non-nil, runs after each background refinement
	// attempt completes, with the solved result (zero on failure). Tests
	// synchronize on it.
	OnRefine func(spec store.CellSpec, r store.Result, err error)
}

const (
	// refineQueue bounds the pending refinement queue.
	refineQueue = 64
	// refineTimeout bounds one background solve.
	refineTimeout = 10 * time.Minute
)

// netInfo caches what Place needs to know about a net term to answer
// without constructing the topology: its display name, class label and
// graph fingerprint. Warmed from training results (whose Meta carries
// name and class and whose key carries the fingerprint) and filled on
// demand by one ResolveNet per unseen term.
type netInfo struct {
	name  string
	class string
	fp    store.Digest
}

// netCacheCapacity bounds the net-term caches of Local and Predictive.
// Net terms are client-supplied ("randomgeo:8:<any seed>"), so neither
// cache may grow with every distinct term a long-running daemon is
// asked about. Sized, like routing's solverCacheCapacity, to hold the
// largest working set the repo has — the 116-network zoo — with room to
// spare; an evicted term costs one ResolveNet on its next request.
const netCacheCapacity = 128

// Predictive wraps any placement backend with the landscape
// interpolation fast path: Place first asks the trained index for a
// confident estimate — microseconds, no graph construction, no matrix
// generation, no solver — and only falls back to the wrapped backend
// (the exact path) when the query point is outside the trained region
// or the local surface is too rough. Every exact answer that does flow
// through is observed back into the index, so the model sharpens as the
// landscape fills in.
//
// Predicted results carry interpolated metrics and a zero content key:
// they are estimates, not cells, and are never persisted. Lookup and
// Query pass straight through to the wrapped backend — content-key
// access is exact by definition.
type Predictive struct {
	Forward
	idx  *predict.Index
	opts PredictiveOptions

	nets *reuse.LRU[string, netInfo] // net term -> what Place needs of it

	refine   chan store.CellSpec
	inflight sync.Map // spec string -> struct{}: refinements queued or running
	stop     chan struct{}
	stopped  sync.Once
	wg       sync.WaitGroup

	predicted atomic.Int64
	fallbacks atomic.Int64
	refined   atomic.Int64
	dropped   atomic.Int64
	obs       *obs.Registry
}

// NewPredictive wraps inner with the predictive fast path. Train the
// returned backend (or its Index) before serving; an empty index simply
// falls back on every request. Close releases the background refinement
// worker when Refine is on.
func NewPredictive(inner Backend, opts PredictiveOptions) *Predictive {
	p := &Predictive{
		Forward: NewForward(inner),
		idx:     predict.NewIndex(predict.Options{}),
		opts:    opts,
		nets:    reuse.NewLRU[string, netInfo](netCacheCapacity),
		stop:    make(chan struct{}),
		obs:     obs.NewRegistry(),
	}
	if opts.Refine {
		p.refine = make(chan store.CellSpec, refineQueue)
		p.wg.Add(1)
		go p.refineLoop()
	}
	return p
}

// Index exposes the interpolation index (for training, sweep hooks and
// inspection).
func (p *Predictive) Index() *predict.Index { return p.idx }

// Train observes a ground-truth result set into the index and warms the
// net-term cache from its metadata, so zoo-named nets never pay a graph
// construction on the serving path.
func (p *Predictive) Train(results []store.Result) {
	p.idx.Train(results)
	for _, r := range results {
		if r.Key == (store.CellKey{}) || r.Meta.Net == "" {
			continue
		}
		// Meta.Net is the display name; for zoo and named nets it is also
		// the grid term, which is what specs arrive with. Generated nets
		// ("randomgeo:30:7") resolve on first request instead.
		p.nets.Add(r.Meta.Net, netInfo{name: r.Meta.Net, class: r.Meta.Class, fp: r.Key.Graph})
	}
}

// Observe adds one exact result to the index — the incremental retrain
// hook sweep completion calls.
func (p *Predictive) Observe(r store.Result) { p.idx.Observe(r) }

// Close stops the background refinement worker, waiting for an
// in-flight solve to finish. Safe to call multiple times; the wrapped
// backend is not closed.
func (p *Predictive) Close() error {
	p.stopped.Do(func() { close(p.stop) })
	p.wg.Wait()
	return nil
}

// netFor resolves a net term to its cached info, constructing the
// topology once per term for as long as the term stays among the
// netCacheCapacity most recently used.
func (p *Predictive) netFor(term string) (netInfo, error) {
	if info, ok := p.nets.Get(term); ok {
		return info, nil
	}
	net, err := sweep.ResolveNet(term)
	if err != nil {
		return netInfo{}, specf("%v", err)
	}
	info := netInfo{name: net.Name, class: net.Class, fp: store.Digest(net.Graph.Fingerprint())}
	p.nets.Add(term, info)
	return info, nil
}

// Put persists an externally computed result through the wrapped backend
// and observes it into the index — a replicated cell is ground truth, so
// the surface sharpens from replication traffic too. Backends that
// cannot accept writes refuse with ErrNotStored.
func (p *Predictive) Put(r store.Result) error {
	if err := p.Forward.Put(r); err != nil {
		return err
	}
	p.idx.Observe(r)
	return nil
}

// Place resolves one cell: a confident interpolation when the trained
// surface covers the query point, the wrapped backend's exact path
// otherwise.
func (p *Predictive) Place(ctx context.Context, spec store.CellSpec) (store.Result, error) {
	r, _, err := p.PlaceSourced(ctx, spec)
	return r, err
}

// PlaceSourced is Place with provenance: SourcePredicted for an
// interpolated answer, the inner backend's source otherwise.
func (p *Predictive) PlaceSourced(ctx context.Context, spec store.CellSpec) (store.Result, Source, error) {
	spec = spec.Normalized()
	scheme, err := CheckSpec(spec)
	if err != nil {
		return store.Result{}, "", err
	}
	info, err := p.netFor(spec.Net)
	if err != nil {
		return store.Result{}, "", err
	}
	// The surface coordinate uses the scheme's effective headroom (0 for
	// schemes without a dial), exactly what stored Meta carries.
	headroom := routing.Headroom(scheme)
	at := predict.Coord{Headroom: headroom, Load: spec.Load, Locality: spec.Locality}
	t0 := time.Now()
	est, ok := p.idx.Predict(info.fp, scheme.Name(), spec.Seed, at)
	p.obs.Observe(ctx, obs.StagePredict, time.Since(t0))
	if ok {
		p.predicted.Add(1)
		if p.refine != nil && !est.Exact {
			p.enqueueRefine(spec)
		}
		return store.Result{
			Meta: store.Meta{
				Net:      info.name,
				Class:    info.class,
				Seed:     spec.Seed,
				Scheme:   scheme.Name(),
				Headroom: headroom,
				Load:     spec.Load,
				Locality: spec.Locality,
			},
			Metrics: est.Metrics,
		}, SourcePredicted, nil
	}

	p.fallbacks.Add(1)
	res, src, err := PlaceSourced(ctx, p.inner, spec)
	if err != nil {
		return store.Result{}, "", err
	}
	// Ground truth came through the slow path anyway: fold it into the
	// surface so the next nearby query can stay on the fast path.
	p.idx.Observe(res)
	return res, src, nil
}

// enqueueRefine schedules a background exact solve for a predicted
// spec, deduplicating against solves already queued or running. Serving
// never blocks on refinement: a full queue drops the request.
func (p *Predictive) enqueueRefine(spec store.CellSpec) {
	key := spec.String()
	if _, loaded := p.inflight.LoadOrStore(key, struct{}{}); loaded {
		return
	}
	select {
	case p.refine <- spec:
	default:
		p.inflight.Delete(key)
		p.dropped.Add(1)
	}
}

// refineLoop drains the refinement queue: each entry is one exact solve
// through the wrapped backend (which persists it), observed back into
// the index so the interpolated sample is replaced by ground truth.
func (p *Predictive) refineLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case spec := <-p.refine:
			ctx, cancel := context.WithTimeout(context.Background(), refineTimeout)
			res, err := p.inner.Place(ctx, spec)
			cancel()
			if err == nil {
				p.idx.Observe(res)
				p.refined.Add(1)
			}
			p.inflight.Delete(spec.String())
			if p.opts.OnRefine != nil {
				p.opts.OnRefine(spec, res, err)
			}
		}
	}
}

// Stats snapshots the wrapped backend and overlays the prediction
// counters and index gauges.
func (p *Predictive) Stats() Stats {
	s := p.inner.Stats()
	s.Backend = "predictive+" + s.Backend
	s.Predicted = p.predicted.Load()
	s.PredictFallbacks = p.fallbacks.Load()
	s.Refined = p.refined.Load()
	s.RefineDropped = p.dropped.Load()
	s.Surfaces, s.SurfaceSamples = p.idx.Len()
	s.Telemetry.Merge(p.obs.Snapshot())
	return s
}
