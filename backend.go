package lowlat

import (
	"context"
	"net"

	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/serve"
	"lowlat/internal/store"
)

// This file is the placement-backend half of the public facade: the one
// API every consumer of the scenario landscape goes through — "give me
// the result for this cell, computing it if needed" — with
// interchangeable implementations. A LocalBackend computes through the
// in-process engine over a writable store (over a read-only one it
// serves stored cells and never computes); a RemoteBackend talks to a
// running lowlatd daemon (with client-side 429 backoff); a
// ClusterBackend fronts N backends with a consistent-hash ring,
// rerouting around down replicas — and, with Replicas > 1, replicating
// every cell to its key's R ring owners with read-repair, hinted handoff
// and anti-entropy healing. They compose: a sweep can farm compute out
// to a cluster, a daemon can serve a cluster of daemons, and all of them
// answer the same Lookup/Place/Query/Stats calls. A PredictiveBackend
// wraps any of them with the landscape interpolation fast path
// (microsecond Place answers from trained metric surfaces, exact
// fallback outside the trained region), and a CachedBackend wraps any
// of them with a client-side LRU + coalescing tier for hot-key traffic.

// PlacementBackend is the placement-access interface: Lookup by content
// key, Place by request coordinates (computing if needed), Query by
// metadata filter, Stats for counters. Every backend type implements it.
type PlacementBackend = backend.Backend

// CellSpec addresses one scenario cell by request coordinates — the
// complement of CellKey, the content-derived address. Deterministic
// generation maps a normalized spec to exactly one key, which is why
// every backend (and every replica of a cluster) agrees where a cell
// lives.
type CellSpec = store.CellSpec

// LocalBackendOptions tunes a LocalBackend (engine width, admission
// bound, invocation hook).
type LocalBackendOptions = backend.LocalOptions

// LocalBackend is the store-backed backend: it computes over a writable
// store and never computes over a read-only one.
type LocalBackend = backend.Local

// RemoteBackend adapts the typed daemon client to the backend interface,
// with bounded, seeded, jittered retry on 429 backpressure.
type RemoteBackend = serve.Remote

// RemoteBackendOptions tunes a RemoteBackend (retry policy, timeout for
// context-less calls).
type RemoteBackendOptions = serve.RemoteOptions

// ClusterBackend fronts N backends with consistent hashing on the
// content key: deterministic key→replica routing, per-replica health
// marks with rerouting to the ring successor, fan-out + merge queries.
// With Options.Replicas > 1 it becomes a replicated self-healing tier:
// writes land on each key's first R ring owners, reads repair divergent
// copies, hinted handoff carries writes across replica downtime, and
// Heal runs an anti-entropy sweep.
type ClusterBackend = cluster.Backend

// ClusterOptions tunes a ClusterBackend (virtual nodes, replica labels,
// probe/query timeouts, the replication factor Replicas, the hinted-
// handoff queue bound HandoffLimit, and the background heal cadence
// AntiEntropyInterval).
type ClusterOptions = cluster.Options

// CachedBackend is the client-side cache tier: a bounded LRU plus
// request coalescing stacked in front of any backend, so a fleet of
// remote or cluster clients absorbs hot-key traffic before it reaches
// the wire.
type CachedBackend = backend.Cached

// CachedBackendOptions tunes a CachedBackend (LRU size).
type CachedBackendOptions = backend.CachedOptions

// PredictiveBackend wraps any placement backend with the landscape
// interpolation fast path: Place answers from trained metric surfaces
// in microseconds and falls back to the wrapped backend only when the
// query point is outside the trained region or the local surface is
// too rough to trust. Predicted results carry interpolated metrics and
// a zero content key — estimates, never persisted.
type PredictiveBackend = backend.Predictive

// PredictiveBackendOptions tunes a PredictiveBackend's background
// refinement (queue an exact solve for every predicted answer so the
// surface self-corrects).
type PredictiveBackendOptions = backend.PredictiveOptions

// NewLocalBackend builds the compute-capable backend over an open result
// store.
func NewLocalBackend(st *ResultStore, opts LocalBackendOptions) *LocalBackend {
	return backend.NewLocal(st, opts)
}

// NewRemoteBackend builds a backend talking to the daemon at baseURL
// (e.g. "http://127.0.0.1:8080").
func NewRemoteBackend(baseURL string, opts RemoteBackendOptions) *RemoteBackend {
	return serve.NewRemote(serve.NewClient(baseURL), opts)
}

// NewClusterBackend fronts the given replicas with a consistent-hash
// ring.
func NewClusterBackend(replicas []PlacementBackend, opts ClusterOptions) (*ClusterBackend, error) {
	return cluster.New(replicas, opts)
}

// NewCachedBackend stacks the client-side LRU + coalescing tier in
// front of inner (typically a RemoteBackend or ClusterBackend).
func NewCachedBackend(inner PlacementBackend, opts CachedBackendOptions) *CachedBackend {
	return backend.NewCached(inner, opts)
}

// NewPredictiveBackend wraps inner with the predictive fast path. Train
// the returned backend before serving (typically on a Query of the
// backing store); an empty index simply falls back on every request.
// Close it when Refine is on to release the background worker.
func NewPredictiveBackend(inner PlacementBackend, opts PredictiveBackendOptions) *PredictiveBackend {
	return backend.NewPredictive(inner, opts)
}

// ServeBackend mounts a backend at addr and serves until ctx is
// cancelled, then drains in-flight requests and returns. notify, when
// non-nil, receives the bound address before serving starts.
func ServeBackend(ctx context.Context, b PlacementBackend, addr string, opts ServeOptions, notify func(net.Addr)) error {
	return serve.NewBackendServer(b, opts).ListenAndServe(ctx, addr, notify)
}
