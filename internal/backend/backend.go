// Package backend defines the one placement-access API every consumer of
// the scenario landscape talks through: "give me the result for this
// cell, computing it if needed". The paper's landscape study is,
// operationally, a huge content-addressed table of placement cells; this
// interface is the seam that lets that table live anywhere — in-process
// over a writable store (Local), in a store mounted read-only (Store), on
// the far side of a daemon's HTTP API (serve.Remote), or sharded across N
// replicas by consistent hashing on the content key (cluster.Backend) —
// without the fig drivers, the sweep orchestrator, the CLI or the serving
// daemon knowing which.
//
// The interface is deliberately small and symmetric with the store's two
// addressing forms: Lookup takes a content key (the answer's identity),
// Place takes a request spec (the question's coordinates), Query takes a
// filter over the stored metadata. Everything else is layered around
// it by wrappers, one mechanism per job: Cached is the serving stack's
// only cache-and-coalescing tier (a bounded LRU over content keys, a
// spec→key shortcut, one flight per spec — mounted by serve.Server
// inside the daemon and stacked over a serve.Remote on the client side
// of the wire), Predictive the interpolation fast path. Every wrapper
// embeds Forward, the one rule by which the optional extensions below
// reach through a wrapper to the backend beneath it; retry and replica
// health belong to serve.Remote and cluster.Backend.
package backend

import (
	"context"
	"errors"
	"fmt"

	"lowlat/internal/obs"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// Backend is the placement-access API. Implementations must be safe for
// concurrent use; Place blocks until the cell is resolved (or the context
// dies), Lookup and Query never compute.
type Backend interface {
	// Lookup returns the stored result for a content key, if this backend
	// holds it. It never triggers computation.
	Lookup(k store.CellKey) (store.Result, bool)
	// Place resolves one cell by request coordinates, computing and
	// persisting it if no prior run has. Specs are normalized internally;
	// invalid specs fail with a *SpecError.
	Place(ctx context.Context, spec store.CellSpec) (store.Result, error)
	// Query lists the backend's stored cells matching a filter, in the
	// store's deterministic order.
	Query(f sweep.Filter) []store.Result
	// Stats snapshots the backend's counters and gauges.
	Stats() Stats
}

// Source says where a Place answer came from. The serving layer surfaces
// it in the HTTP response so clients (and smoke tests) can tell a recall
// from a computation.
type Source string

const (
	// SourceStore means the cell was already persisted.
	SourceStore Source = "store"
	// SourceComputed means this request ran the placement engine.
	SourceComputed Source = "computed"
	// SourceCache means a Cached tier in front of the backend answered
	// from its LRU.
	SourceCache Source = "cache"
	// SourceBackend is the fallback for backends that don't report
	// provenance.
	SourceBackend Source = "backend"
	// SourcePredicted means the landscape-interpolation fast path
	// answered: the metrics are a confident estimate over trained
	// ground truth, not an exact solve, and the result carries no
	// content key.
	SourcePredicted Source = "predicted"
)

// Sourced is the optional extension backends implement to report where a
// Place answer came from. All backends in this repository implement it;
// the plain Place method is the interface contract, PlaceSourced the
// richer internal form.
type Sourced interface {
	PlaceSourced(ctx context.Context, spec store.CellSpec) (store.Result, Source, error)
}

// PlaceSourced resolves a cell through b, reporting provenance when b can
// (SourceBackend otherwise).
func PlaceSourced(ctx context.Context, b Backend, spec store.CellSpec) (store.Result, Source, error) {
	if s, ok := b.(Sourced); ok {
		return s.PlaceSourced(ctx, spec)
	}
	r, err := b.Place(ctx, spec)
	return r, SourceBackend, err
}

// Prober is the optional health-check extension. A cluster uses it to
// distinguish "replica answered: miss" from "replica is down" on the
// methods whose signatures cannot carry an error.
type Prober interface {
	Probe(ctx context.Context) error
}

// ContextQuerier is the optional error-aware form of Query. Backends that
// do I/O (remote daemons) implement it so callers that care — a cluster
// merging a fan-out — can tell an empty answer from a failed one.
type ContextQuerier interface {
	QueryContext(ctx context.Context, f sweep.Filter) ([]store.Result, error)
}

// Putter is the optional write extension: accept one already-computed
// result and persist it. It is how replicated clusters copy cells
// between replicas — replication puts after a Place, hinted-handoff
// drains after a recovery, read-repair and anti-entropy heals — without
// recomputing anything. Local implements it directly; Remote carries it
// over the daemon's /v1/replicate endpoint; read-only backends refuse
// with an error wrapping ErrNotStored.
type Putter interface {
	Put(r store.Result) error
}

// KeyLister is the optional inventory extension: enumerate every content
// key the backend holds, sorted by canonical string. Anti-entropy sweeps
// exchange these inventories to find cells a rejoined replica is missing.
type KeyLister interface {
	Keys(ctx context.Context) ([]store.CellKey, error)
}

// KeyDigester is the cheap form of KeyLister: one order-independent
// digest over the held key set (store.DigestKeys) plus the count. A
// heal sweep fetches digests first and only pays for full key exchanges
// when something actually changed since the last sweep.
type KeyDigester interface {
	KeyDigest(ctx context.Context) (store.Digest, int, error)
}

// ErrOverloaded marks a Place rejected by admission control: the
// backend's computation limit is reached and the caller should retry
// later. The HTTP layer renders it as 429.
var ErrOverloaded = errors.New("computation limit reached; retry later")

// ErrNotStored marks a Place that cannot be satisfied without computing
// on a backend that will not compute (a read-only store mount). The HTTP
// layer renders it as 403.
var ErrNotStored = errors.New("cell is not stored and cannot be computed")

// ErrUnavailable marks a backend that could not be reached at all — a
// dead daemon, a refused connection — as opposed to one that answered
// with an application error. Cluster routing reroutes on it.
var ErrUnavailable = errors.New("backend unavailable")

// SpecError is an invalid request spec — unresolvable net term, unknown
// scheme, out-of-range knob. The HTTP layer renders it as 400.
type SpecError struct {
	Msg string
}

// Error implements error.
func (e *SpecError) Error() string { return e.Msg }

// specf builds a *SpecError.
func specf(format string, args ...any) *SpecError {
	return &SpecError{Msg: fmt.Sprintf(format, args...)}
}

// Stats is a backend's counter/gauge snapshot. Aggregating backends (the
// cluster) roll their replicas' stats up into the top-level counters and
// keep the per-replica snapshots in Replicas.
type Stats struct {
	// Backend names the implementation: "local", "store", "remote",
	// "cluster".
	Backend string `json:"backend"`
	// Cells and MemoEntries gauge the visible store; ReadOnly reports a
	// mount that will never compute.
	Cells       int  `json:"cells"`
	MemoEntries int  `json:"memo_entries"`
	ReadOnly    bool `json:"read_only"`
	// StoreHits answered from persisted cells; MemoHits derived a content
	// key from the calibration memo without regenerating a matrix.
	StoreHits int64 `json:"store_hits"`
	MemoHits  int64 `json:"memo_hits"`
	// Computed counts engine invocations, Rejected admission-control
	// refusals, InFlight currently admitted computations.
	Computed int64 `json:"computed"`
	Rejected int64 `json:"rejected"`
	InFlight int64 `json:"in_flight"`
	// Errors counts failed calls (transport failures, failed places);
	// Retried counts backoff retries after 429; Rerouted counts requests
	// a cluster moved off their ring owner because it was down.
	Errors   int64 `json:"errors"`
	Retried  int64 `json:"retried"`
	Rerouted int64 `json:"rerouted"`
	// Down counts replicas currently marked unhealthy (cluster only).
	Down int `json:"down,omitempty"`
	// ReplicaFactor is the cluster's configured ownership factor R; every
	// cell is written to its key's first R distinct ring successors
	// (cluster only, and only reported when R > 1).
	ReplicaFactor int `json:"replica_factor,omitempty"`
	// Replicated counts successful replication copies to secondary
	// owners; ReadRepairs counts stale or missing owner copies fixed on
	// the Lookup path (cluster only).
	Replicated  int64 `json:"replicated,omitempty"`
	ReadRepairs int64 `json:"read_repairs,omitempty"`
	// HintsQueued / HintsDrained / HintsDropped count hinted-handoff
	// writes queued for a down replica, delivered after its recovery, and
	// shed because the bounded queue overflowed; HintsPending gauges
	// hints currently waiting (cluster only).
	HintsQueued  int64 `json:"hints_queued,omitempty"`
	HintsDrained int64 `json:"hints_drained,omitempty"`
	HintsDropped int64 `json:"hints_dropped,omitempty"`
	HintsPending int   `json:"hints_pending,omitempty"`
	// Healed counts cells the anti-entropy sweep copied onto owners that
	// were missing them; HealSweeps counts completed sweeps (cluster
	// only).
	Healed     int64 `json:"healed,omitempty"`
	HealSweeps int64 `json:"heal_sweeps,omitempty"`
	// CacheHits and CacheMisses count answers served from (and falling
	// through) a client-side Cached wrapper's LRU (cached only).
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// Coalesced counts Place calls that joined another caller's in-flight
	// dispatch instead of issuing their own (cached only).
	Coalesced int64 `json:"coalesced,omitempty"`
	// Predicted counts Places answered by the interpolation fast path,
	// PredictFallbacks those that fell through to the exact path after
	// the index refused; Refined counts background exact solves that
	// replaced a predicted sample with ground truth, RefineDropped
	// refinements shed because the queue was full (predictive only).
	Predicted        int64 `json:"predicted,omitempty"`
	PredictFallbacks int64 `json:"predict_fallbacks,omitempty"`
	Refined          int64 `json:"refined,omitempty"`
	RefineDropped    int64 `json:"refine_dropped,omitempty"`
	// Surfaces and SurfaceSamples gauge the trained index (predictive
	// only).
	Surfaces       int `json:"surfaces,omitempty"`
	SurfaceSamples int `json:"surface_samples,omitempty"`
	// Telemetry carries the per-stage histograms and rolling windows
	// (solve, store_read, store_write, predict, replicate, heal,
	// remote_hop, ...) on the wire as "stages" and "windows". Wrapping
	// backends merge their own registry into the wrapped backend's; the
	// cluster merges every replica's, so the top level is always the
	// full-tree view the SLO engine evaluates.
	obs.Telemetry
	// Replicas carries per-replica snapshots (cluster only).
	Replicas []Stats `json:"replicas,omitempty"`
}

// Eventer is the optional event-journal extension: return structured
// state-transition events recorded after the cursor, oldest first, at
// most limit (limit <= 0 means all retained). A cluster implements it
// by folding its own journal with its replicas', tagging each event's
// Origin; /v1/events serves it.
type Eventer interface {
	Events(ctx context.Context, since int64, limit int) ([]obs.Event, error)
}

// DownReporter is the optional cheap-health extension: name the
// replicas currently marked down, without the full Stats fan-out.
// /v1/health uses it for readiness reasons on cluster fronts.
type DownReporter interface {
	DownReplicas() []string
}

// Journaler is the optional journal-identity extension: name the journal
// the backend records its own transitions into (the one its Events fold
// starts from). A serving front compares it against its own to tell
// whether the daemon shares one journal across layers — in which case
// the backend's Events already carry the front's entries.
type Journaler interface {
	Journal() *obs.Journal
}
