package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/obs"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// RemoteOptions tunes a Remote backend. The zero value retries 429s with
// the default Backoff and bounds context-less calls at 30 seconds.
type RemoteOptions struct {
	// Retry is the 429 backoff policy (zero value = defaults).
	Retry Backoff
	// Timeout bounds the interface methods whose signatures carry no
	// context — Lookup, Query, Stats (default 30s).
	Timeout time.Duration
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// Remote adapts the typed daemon client to the placement-backend
// interface: every method is one HTTP round trip (Place with bounded,
// jittered retry on 429 backpressure). A Remote is how one process's
// sweep or daemon composes onto another daemon's store and engine — and
// N Remotes behind a consistent-hash ring are a cluster.
type Remote struct {
	c    *Client
	opts RemoteOptions

	errs    atomic.Int64
	retried atomic.Int64
	obs     *obs.Registry
}

// NewRemote wraps a Client in the backend interface.
func NewRemote(c *Client, opts RemoteOptions) *Remote {
	return &Remote{c: c, opts: opts.withDefaults(), obs: obs.NewRegistry()}
}

// hop records one HTTP round trip into the remote_hop stage histogram
// (and the request's trace, when ctx carries one).
func (r *Remote) hop(ctx context.Context, t0 time.Time) {
	r.obs.Observe(ctx, obs.StageRemoteHop, time.Since(t0))
}

// BaseURL returns the daemon root this backend talks to (cluster labels
// and error messages use it).
func (r *Remote) BaseURL() string { return r.c.BaseURL }

// wrap classifies an error: application-level daemon answers
// (StatusError) pass through untouched so callers can re-render their
// status; anything else — a refused connection, a dead socket — marks the
// replica unavailable, which is what cluster routing reroutes on.
func (r *Remote) wrap(err error) error {
	if err == nil {
		return nil
	}
	var se *StatusError
	if errors.As(err, &se) {
		return err
	}
	return fmt.Errorf("%s: %w: %v", r.c.BaseURL, backend.ErrUnavailable, err)
}

// ctx derives the bounded context for the interface methods that carry
// none.
func (r *Remote) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), r.opts.Timeout)
}

// Lookup fetches one cell by content key. Any failure — a 404, a dead
// daemon — reads as a miss; callers that need to distinguish probe
// health separately (Prober).
func (r *Remote) Lookup(k store.CellKey) (store.Result, bool) {
	ctx, cancel := r.ctx()
	defer cancel()
	t0 := time.Now()
	res, err := r.c.Cell(ctx, k.String())
	r.hop(ctx, t0)
	if err != nil {
		var se *StatusError
		if !errors.As(err, &se) || se.Code != 404 {
			r.errs.Add(1)
		}
		return store.Result{}, false
	}
	return res, true
}

// Place asks the daemon for one cell, retrying 429 backpressure with the
// configured backoff and honoring ctx throughout.
func (r *Remote) Place(ctx context.Context, spec store.CellSpec) (store.Result, error) {
	res, _, err := r.PlaceSourced(ctx, spec)
	return res, err
}

// PlaceSourced is Place with the daemon-reported provenance.
func (r *Remote) PlaceSourced(ctx context.Context, spec store.CellSpec) (store.Result, backend.Source, error) {
	spec = spec.Normalized()
	loc := spec.Locality
	req := PlaceRequest{
		Net:      spec.Net,
		Seed:     spec.Seed,
		Scheme:   spec.Scheme,
		Headroom: spec.Headroom,
		Load:     spec.Load,
		Locality: &loc,
	}
	var resp *PlaceResponse
	err := r.opts.Retry.Do(ctx, RetryableStatus,
		func() { r.retried.Add(1) },
		func() error {
			t0 := time.Now()
			p, err := r.c.Place(ctx, req)
			r.hop(ctx, t0)
			if err != nil {
				return err
			}
			resp = p
			return nil
		})
	if err != nil {
		r.errs.Add(1)
		return store.Result{}, "", r.wrap(err)
	}
	return resp.Result, backend.Source(resp.Source), nil
}

// Query lists the daemon's cells matching the filter; failures read as
// an empty answer (QueryContext reports them).
func (r *Remote) Query(f sweep.Filter) []store.Result {
	ctx, cancel := r.ctx()
	defer cancel()
	res, err := r.QueryContext(ctx, f)
	if err != nil {
		return nil
	}
	return res
}

// QueryContext is the error-aware Query the cluster's fan-out uses.
func (r *Remote) QueryContext(ctx context.Context, f sweep.Filter) ([]store.Result, error) {
	t0 := time.Now()
	res, err := r.c.Query(ctx, f)
	r.hop(ctx, t0)
	if err != nil {
		r.errs.Add(1)
		return nil, r.wrap(err)
	}
	return res, nil
}

// Put pushes one computed cell to the daemon via /v1/replicate — what a
// replicating cluster calls on the owners that did not serve the
// request. Daemon-level refusals (a read-only store answers 403) pass
// through as StatusError; transport failures read as ErrUnavailable so
// the cluster marks the replica down and hints the write.
func (r *Remote) Put(res store.Result) error {
	ctx, cancel := r.ctx()
	defer cancel()
	t0 := time.Now()
	err := r.c.Replicate(ctx, res)
	r.hop(ctx, t0)
	if err != nil {
		r.errs.Add(1)
		return r.wrap(err)
	}
	return nil
}

// Keys fetches the daemon's full key inventory — the anti-entropy
// exchange. Keys the daemon renders that this client cannot parse are a
// protocol error, not a partial answer.
func (r *Remote) Keys(ctx context.Context) ([]store.CellKey, error) {
	resp, err := r.c.Digest(ctx, true)
	if err != nil {
		r.errs.Add(1)
		return nil, r.wrap(err)
	}
	keys := make([]store.CellKey, len(resp.Keys))
	for i, ks := range resp.Keys {
		k, err := store.ParseCellKey(ks)
		if err != nil {
			r.errs.Add(1)
			return nil, fmt.Errorf("%s: %w", r.c.BaseURL, err)
		}
		keys[i] = k
	}
	return keys, nil
}

// KeyDigest fetches the daemon's key count and order-independent key-set
// digest — the cheap first half of anti-entropy.
func (r *Remote) KeyDigest(ctx context.Context) (store.Digest, int, error) {
	resp, err := r.c.Digest(ctx, false)
	if err != nil {
		r.errs.Add(1)
		return 0, 0, r.wrap(err)
	}
	var d store.Digest
	if err := d.UnmarshalJSON([]byte(`"` + resp.Digest + `"`)); err != nil {
		r.errs.Add(1)
		return 0, 0, fmt.Errorf("%s: %w", r.c.BaseURL, err)
	}
	return d, resp.Count, nil
}

// Probe checks the daemon's liveness endpoint — the health mark cluster
// routing flips replicas on.
func (r *Remote) Probe(ctx context.Context) error {
	if err := r.c.Health(ctx); err != nil {
		return r.wrap(err)
	}
	return nil
}

// Stats is the daemon's own /v1/stats snapshot, named "remote" and
// carrying this client's call counters. An unreachable daemon yields
// zero gauges and a bumped error count rather than an error: Stats is a
// snapshot, not a health check.
func (r *Remote) Stats() backend.Stats {
	ctx, cancel := r.ctx()
	defer cancel()
	var out backend.Stats
	if st, err := r.c.Stats(ctx); err != nil {
		r.errs.Add(1)
	} else {
		out = *st
	}
	out.Backend = "remote"
	out.Errors = r.errs.Load()
	out.Retried = r.retried.Load()
	// The daemon's own telemetry (solve, store reads/writes, its HTTP
	// endpoints) merges under this client's remote_hop, so a front's
	// stats see through the wire.
	t := r.obs.Snapshot()
	t.Merge(out.Telemetry)
	out.Telemetry = t
	return out
}

// Events fetches the daemon's state-transition journal — the extension
// a cluster front folds into its own /v1/events, tagging each entry
// with this replica's label.
func (r *Remote) Events(ctx context.Context, since int64, limit int) ([]obs.Event, error) {
	resp, err := r.c.Events(ctx, since, limit)
	if err != nil {
		r.errs.Add(1)
		return nil, r.wrap(err)
	}
	return resp.Events, nil
}
