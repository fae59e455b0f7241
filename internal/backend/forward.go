package backend

import (
	"context"
	"errors"
	"fmt"

	"lowlat/internal/obs"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// Forward is the forwarding base every backend wrapper embeds: it
// carries the wrapped backend and implements Lookup, Query, Stats and
// every optional extension declared in backend.go by delegating to it
// when it has the capability, answering that extension's "not
// supported" result when it does not. A wrapper embeds Forward, writes
// Place, and overrides only what it changes — so it cannot silently
// drop a capability the backend beneath it has, and one added to this
// package later reaches through every wrapper once Forward forwards it
// (TestWrappersForwardEveryCapability fails until it does).
//
// Place is deliberately not here: embedding does not dispatch back into
// the outer type, so a promoted Place would bypass the wrapper's own
// PlaceSourced. Every wrapper writes it as the three lines that call
// its PlaceSourced.
type Forward struct {
	inner Backend
}

// NewForward builds the base over the backend a wrapper wraps.
func NewForward(inner Backend) Forward { return Forward{inner: inner} }

// Inner exposes the wrapped backend.
func (f Forward) Inner() Backend { return f.inner }

// Lookup passes through.
func (f Forward) Lookup(k store.CellKey) (store.Result, bool) { return f.inner.Lookup(k) }

// Query passes through.
func (f Forward) Query(fl sweep.Filter) []store.Result { return f.inner.Query(fl) }

// Stats passes through.
func (f Forward) Stats() Stats { return f.inner.Stats() }

// PlaceSourced passes through, reporting SourceBackend when the wrapped
// backend reports no provenance.
func (f Forward) PlaceSourced(ctx context.Context, spec store.CellSpec) (store.Result, Source, error) {
	return PlaceSourced(ctx, f.inner, spec)
}

// Probe passes through; a backend that cannot be probed is in-process
// and healthy.
func (f Forward) Probe(ctx context.Context) error {
	if pr, ok := f.inner.(Prober); ok {
		return pr.Probe(ctx)
	}
	return nil
}

// QueryContext passes through; a backend without the error-aware form
// answers its plain Query.
func (f Forward) QueryContext(ctx context.Context, fl sweep.Filter) ([]store.Result, error) {
	if cq, ok := f.inner.(ContextQuerier); ok {
		return cq.QueryContext(ctx, fl)
	}
	return f.inner.Query(fl), nil
}

// Put passes through; a backend that accepts no writes refuses with
// ErrNotStored.
func (f Forward) Put(r store.Result) error {
	if pt, ok := f.inner.(Putter); ok {
		return pt.Put(r)
	}
	return fmt.Errorf("wrapped backend accepts no writes: %w", ErrNotStored)
}

// Keys passes through; a backend that enumerates no inventory fails
// with errors.ErrUnsupported.
func (f Forward) Keys(ctx context.Context) ([]store.CellKey, error) {
	if kl, ok := f.inner.(KeyLister); ok {
		return kl.Keys(ctx)
	}
	return nil, fmt.Errorf("wrapped backend enumerates no keys: %w", errors.ErrUnsupported)
}

// KeyDigest passes through; a backend that digests no inventory fails
// with errors.ErrUnsupported.
func (f Forward) KeyDigest(ctx context.Context) (store.Digest, int, error) {
	if kd, ok := f.inner.(KeyDigester); ok {
		return kd.KeyDigest(ctx)
	}
	return 0, 0, fmt.Errorf("wrapped backend digests no keys: %w", errors.ErrUnsupported)
}

// Events passes through; a backend without a journal has no events.
func (f Forward) Events(ctx context.Context, since int64, limit int) ([]obs.Event, error) {
	if ev, ok := f.inner.(Eventer); ok {
		return ev.Events(ctx, since, limit)
	}
	return nil, nil
}

// DownReplicas passes through; a backend without replicas has none
// down.
func (f Forward) DownReplicas() []string {
	if dr, ok := f.inner.(DownReporter); ok {
		return dr.DownReplicas()
	}
	return nil
}

// Journal passes through; a backend without a journal answers nil.
func (f Forward) Journal() *obs.Journal {
	if jr, ok := f.inner.(Journaler); ok {
		return jr.Journal()
	}
	return nil
}
