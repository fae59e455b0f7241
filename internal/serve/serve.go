// Package serve is the query-serving daemon layer: a long-running HTTP
// API over a placement backend, turning the batch landscape study into an
// online service — the operator's "how latency-capable is my topology,
// and what does scheme X buy me?" asked as a request instead of a sweep.
// Related always-on systems (cISP's latency service, the latency-aware
// inter-domain routing daemon) answer path/latency queries the same way:
// mostly from precomputed state, computing on demand when a query misses.
//
// The server is a thin HTTP skin over lowlat's one placement-access API
// (internal/backend): cell lookup and filtered listing (/v1/cell,
// /v1/query, reusing sweep.Filter), aggregate per-class CDF summaries
// (/v1/summary), on-demand placement (/v1/place) and counters
// (/v1/stats). Mounted over a Local backend it is the classic
// one-store-one-daemon deployment; mounted over a cluster backend the
// same daemon is a stateless front for N sharded replicas — daemons
// compose.
//
// The hot path is production-shaped rather than a bare mux, and none of
// it is implemented here: the server mounts backend.Cached — the same
// cache tier a client stacks on its side of the wire — between its
// handlers and the backend it fronts, so
//
//   - requests for the same spec coalesce onto one flight, and N
//     concurrent misses on one cell trigger one backend dispatch (one
//     computation, wherever the backend routes it);
//   - finished cells sit in a bounded LRU keyed by content key, ahead of
//     the backend;
//   - a flight outlives its leader: the one policy the daemon adds under
//     the tier (detached) severs the dispatch from the leading request's
//     cancellation and bounds it by PlaceTimeout instead;
//   - the Local backend bounds admitted computations by a semaphore —
//     beyond it /v1/place answers 429 immediately instead of queueing
//     without bound — and runs actual solves on a bounded worker pool;
//   - shutdown drains in-flight work (http.Server.Shutdown semantics);
//   - /v1/stats exposes the hit/miss/coalesce/in-flight counters.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/obs"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// Options tunes a Server's HTTP side: the mounted cache tier, shutdown,
// request logging, the slow ring and the health plane. The zero value
// serves with defaults. The backend the server fronts is configured by
// whoever builds it.
type Options struct {
	// CacheSize bounds the LRU response cache in entries (default 512).
	CacheSize int
	// DrainTimeout bounds graceful shutdown: how long Serve waits for
	// in-flight requests after its context is cancelled (default 15s).
	DrainTimeout time.Duration
	// PlaceTimeout bounds one /v1/place flight end to end (default 10m).
	// Local solves rarely approach it; what it actually protects against
	// is a proxied backend that blackholes — without a deadline a hung
	// downstream would pin the flight leader, its coalesced followers,
	// and the request key forever.
	PlaceTimeout time.Duration
	// Logger, when non-nil, receives one structured record per request:
	// request ID, endpoint, status, duration, handler annotations (cell
	// key, answer source) and per-stage timings. Nil disables request
	// logging; latency histograms and the slow ring record regardless.
	Logger *slog.Logger
	// SlowThreshold is the request duration at or above which a request
	// is retained in the /v1/slow ring (default 500ms; negative disables
	// retention).
	SlowThreshold time.Duration
	// SlowRingSize bounds the /v1/slow ring in entries (default 64).
	SlowRingSize int
	// Objectives are the declarative SLOs /v1/health and the
	// lowlat_slo_* gauges evaluate (see obs.ParseObjective for the
	// grammar). Empty means no SLO engine: /v1/health reports on down
	// replicas alone.
	Objectives []obs.Objective
	// SLOPageBurn is the burn rate both windows must reach before an
	// objective pages (default 2).
	SLOPageBurn float64
	// SLOMinInterval caches SLO evaluations (default 1s) — a cluster
	// front's evaluation may fan out to replicas for backend-stage
	// windows, so /v1/health and /metrics must not re-pay that per
	// scrape. Negative disables caching (tests).
	SLOMinInterval time.Duration
	// Windows is the rolling-window geometry the server's endpoint
	// histograms (and the SLO engine's short window) roll on; the zero
	// value is the obs default (10s slots; 1m, 5m, 1h windows).
	Windows obs.WindowConfig
	// Journal is the event journal /v1/events serves and SLO/health
	// transitions record into. A daemon fronting a cluster passes the
	// same journal to cluster.Options.Journal so replica transitions and
	// serving-layer transitions land in one sequence. Nil allocates a
	// private JournalSize-entry journal.
	Journal *obs.Journal
	// JournalSize bounds the private journal allocated when Journal is
	// nil (default 1024 entries).
	JournalSize int
	// WatchInterval is the default /v1/watch snapshot period when the
	// request does not name one (default 2s).
	WatchInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 512
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 15 * time.Second
	}
	if o.PlaceTimeout <= 0 {
		o.PlaceTimeout = 10 * time.Minute
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = 500 * time.Millisecond
	}
	if o.Journal == nil {
		o.Journal = obs.NewJournal(o.JournalSize)
	}
	if o.WatchInterval <= 0 {
		o.WatchInterval = 2 * time.Second
	}
	return o
}

// Stats is the /v1/stats payload: monotonic counters since the server
// started, plus backend gauges. Field order is the wire order.
type Stats struct {
	// Backend names the implementation serving /v1/place: "local",
	// "store", "remote", "cluster".
	Backend string `json:"backend"`
	// StoreCells and MemoEntries gauge the backend's visible store.
	StoreCells  int  `json:"store_cells"`
	MemoEntries int  `json:"memo_entries"`
	ReadOnly    bool `json:"read_only"`
	// Queries, CellLookups and PlaceRequests count requests per endpoint.
	Queries       int64 `json:"queries"`
	CellLookups   int64 `json:"cell_lookups"`
	PlaceRequests int64 `json:"place_requests"`
	// CacheHits were answered by the LRU; CacheMisses consulted it and
	// fell through to the backend. StoreHits were answered by the
	// backend's store, MemoHits derived their cell key from the
	// calibration memo without regenerating the matrix.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	StoreHits   int64 `json:"store_hits"`
	MemoHits    int64 `json:"memo_hits"`
	// Coalesced requests joined another request's in-flight computation;
	// Computed counts engine invocations; Rejected counts 429s.
	Coalesced int64 `json:"coalesced"`
	Computed  int64 `json:"computed"`
	Rejected  int64 `json:"rejected"`
	// InFlight gauges currently admitted computations; CachedEntries
	// gauges the LRU.
	InFlight      int64 `json:"in_flight"`
	CachedEntries int   `json:"cached_entries"`
	// Predicted counts places answered by the interpolation fast path,
	// PredictFallbacks those it handed to the exact path; Refined and
	// RefineDropped count background ground-truth solves completed and
	// shed. Surfaces and SurfaceSamples gauge the trained index. All six
	// appear only when the backend is predictive.
	Predicted        int64 `json:"predicted,omitempty"`
	PredictFallbacks int64 `json:"predict_fallbacks,omitempty"`
	Refined          int64 `json:"refined,omitempty"`
	RefineDropped    int64 `json:"refine_dropped,omitempty"`
	Surfaces         int   `json:"surfaces,omitempty"`
	SurfaceSamples   int   `json:"surface_samples,omitempty"`
	// Replications counts cells accepted through /v1/replicate — writes
	// pushed by a replicating or healing cluster peer, as opposed to
	// cells this daemon computed itself.
	Replications int64 `json:"replications"`
	// Replication counters, mirrored from a cluster backend running with
	// R > 1 (see backend.Stats for meanings). All zero — and absent —
	// otherwise.
	ReplicaFactor int   `json:"replica_factor,omitempty"`
	Replicated    int64 `json:"replicated,omitempty"`
	ReadRepairs   int64 `json:"read_repairs,omitempty"`
	HintsQueued   int64 `json:"hints_queued,omitempty"`
	HintsDrained  int64 `json:"hints_drained,omitempty"`
	HintsDropped  int64 `json:"hints_dropped,omitempty"`
	HintsPending  int   `json:"hints_pending,omitempty"`
	Healed        int64 `json:"healed,omitempty"`
	HealSweeps    int64 `json:"heal_sweeps,omitempty"`
	// Replicas carries per-replica backend snapshots when the server
	// fronts a cluster.
	Replicas []backend.Stats `json:"replicas,omitempty"`
	// SlowRequests counts requests that crossed the slow threshold since
	// the server started (including entries the ring has since evicted).
	SlowRequests int64 `json:"slow_requests,omitempty"`
	// Telemetry carries the per-stage histograms ("stages") and their
	// rolling windows ("windows"): the backend's (solve,
	// store_read/store_write, predict, replicate, heal, remote_hop;
	// cluster-merged across replicas when fronting a cluster) plus this
	// server's per-endpoint http_* timings. Each snapshot reports
	// count/sum/max, p50/p90/p99 and the exact sparse buckets the
	// quantiles were computed from; each window entry adds its name,
	// covered span and observation rate.
	obs.Telemetry
}

// counters is the server's HTTP-layer atomic counter block; cache
// counters live in the mounted tier, compute-side counters in the
// backend.
type counters struct {
	queries      atomic.Int64
	cells        atomic.Int64
	places       atomic.Int64
	replications atomic.Int64
}

// PlaceRequest asks for one scenario cell by its coordinates. Net takes
// any single-network sweep grid term (a zoo name, "randomgeo:<n>:<seed>",
// "multiregion:<RxP>:<seed>").
type PlaceRequest struct {
	Net      string  `json:"net"`
	Seed     int64   `json:"seed"`
	Scheme   string  `json:"scheme"`
	Headroom float64 `json:"headroom,omitempty"`
	// Load is the target min-cut utilization (0 = the paper's 1/1.3).
	Load float64 `json:"load,omitempty"`
	// Locality is the traffic locality ℓ; nil = 1, explicit 0 = pure
	// gravity.
	Locality *float64 `json:"locality,omitempty"`
}

// PlaceResponse carries the cell and where it came from: "cache" (LRU),
// "store" (persisted by an earlier run or request), "computed" (placed
// by this request — and now persisted for the next one), or "predicted"
// (interpolated over the trained landscape; an estimate with no content
// key, flagged by the Predicted marker).
type PlaceResponse struct {
	Source    string       `json:"source"`
	Predicted bool         `json:"predicted,omitempty"`
	Result    store.Result `json:"result"`
}

// QueryResponse lists stored cells matching a filter.
type QueryResponse struct {
	Count   int            `json:"count"`
	Results []store.Result `json:"results"`
}

// CellResponse is one cell lookup.
type CellResponse struct {
	Source string       `json:"source"`
	Result store.Result `json:"result"`
}

// ReplicateResponse acknowledges one /v1/replicate write.
type ReplicateResponse struct {
	Stored bool   `json:"stored"`
	Key    string `json:"key"`
}

// DigestResponse is the /v1/digest payload: the store's key count and
// order-independent key-set digest (store.DigestKeys), plus — when the
// request asked with ?keys=1 — the canonical key strings themselves.
// Cluster anti-entropy compares digests first and exchanges key lists
// only when they differ.
type DigestResponse struct {
	Count  int      `json:"count"`
	Digest string   `json:"digest"`
	Keys   []string `json:"keys,omitempty"`
}

// SlowResponse is the /v1/slow payload: the most recent slow requests
// (newest first) and the all-time count, including evicted entries.
type SlowResponse struct {
	Total    int64           `json:"total"`
	Requests []obs.SlowEntry `json:"requests"`
}

// apiError is an error with an HTTP status.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func errf(code int, format string, args ...any) *apiError {
	return &apiError{code: code, msg: fmt.Sprintf(format, args...)}
}

// Server serves one placement backend over HTTP. Create with New (over a
// store) or NewBackendServer (over any backend), mount via Handler, or
// run with Serve / ListenAndServe.
type Server struct {
	b       backend.Backend // the backend the server fronts
	tier    *backend.Cached // LRU + coalescing over detached{b}; every handler goes through it
	opts    Options
	c       counters
	mux     *http.ServeMux
	h       http.Handler // mux wrapped in the tracing middleware
	obs     *obs.Registry
	slow    *obs.SlowRing
	journal *obs.Journal
	slo     *obs.SLOEngine

	// healthState is the last /v1/health status served, for journaling
	// ok→degraded→critical transitions exactly once each.
	healthMu    sync.Mutex
	healthState string
}

// New builds a Server over an open store with the default backend for
// it: a Local backend when the store is writable (a computed cell
// persists), a read-only Store backend when it was opened with
// OpenReadOnly (/v1/place then serves hits and answers 403 for cells
// that would need computing). A caller that tunes the backend builds it
// and calls NewBackendServer.
func New(st *store.Store, opts Options) *Server {
	if st.ReadOnly() {
		return NewBackendServer(backend.NewStore(st), opts)
	}
	return NewBackendServer(backend.NewLocal(st, backend.LocalOptions{}), opts)
}

// detached is the daemon's flight policy, mounted under the cache tier:
// the tier's flight leader computes for its followers, so a leader that
// disconnects must not abort the dispatch — but a blackholed downstream
// must not pin the flight (and its request key) forever either. The
// dispatch therefore runs on the leader's context with cancellation
// severed and PlaceTimeout in its place. Values ride along, so the
// leader's Trace still collects backend stage timings and the request
// ID still reaches downstream daemons.
type detached struct {
	backend.Forward
	timeout time.Duration
}

// Place implements backend.Backend.
func (d detached) Place(ctx context.Context, spec store.CellSpec) (store.Result, error) {
	r, _, err := d.PlaceSourced(ctx, spec)
	return r, err
}

// PlaceSourced dispatches on a context that outlives ctx's cancellation,
// bounded by the timeout.
func (d detached) PlaceSourced(ctx context.Context, spec store.CellSpec) (store.Result, backend.Source, error) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), d.timeout)
	defer cancel()
	return d.Forward.PlaceSourced(ctx, spec)
}

// NewBackendServer builds a Server over any placement backend — a local
// or read-only store, a remote daemon, a consistent-hash cluster, a
// predictive wrapper around any of them — adding the HTTP skin: the
// mounted cache tier (LRU response cache, request coalescing) and the
// JSON endpoints. The caller owns b and closes it after Serve returns.
func NewBackendServer(b backend.Backend, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		b: b,
		tier: backend.NewCached(
			detached{Forward: backend.NewForward(b), timeout: opts.PlaceTimeout},
			backend.CachedOptions{Size: opts.CacheSize}),
		opts:        opts,
		mux:         http.NewServeMux(),
		obs:         obs.NewRegistryWindows(opts.Windows),
		slow:        obs.NewSlowRing(opts.SlowRingSize),
		journal:     opts.Journal,
		healthState: HealthOK,
	}
	if len(opts.Objectives) > 0 {
		s.slo = obs.NewSLOEngine(opts.Objectives, obs.SLOConfig{
			PageBurn:    opts.SLOPageBurn,
			MinInterval: opts.SLOMinInterval,
			Journal:     s.journal,
		})
		// Pre-create the serving-layer stages error-rate objectives read,
		// so an error-free server evaluates them against an empty local
		// window instead of falling through to a backend stats fan-out.
		for _, o := range opts.Objectives {
			if o.Kind == obs.ObjectiveErrorRate && strings.HasPrefix(o.Stage, "http") {
				s.obs.Hist(o.Stage)
				s.obs.Hist(o.Stage + obs.ErrorsSuffix)
			}
		}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/cell", s.handleCell)
	s.mux.HandleFunc("GET /v1/summary", s.handleSummary)
	s.mux.HandleFunc("POST /v1/place", s.handlePlace)
	s.mux.HandleFunc("POST /v1/replicate", s.handleReplicate)
	s.mux.HandleFunc("GET /v1/digest", s.handleDigest)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/slow", s.handleSlow)
	s.mux.HandleFunc("GET /v1/health", s.handleHealthReport)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/watch", s.handleWatch)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.h = s.traced(s.mux)
	return s
}

// traced is the edge middleware every request crosses: it accepts a
// caller-supplied X-Request-ID (or mints one), attaches a Trace to the
// request context — the same trace backend stages observe into — echoes
// the ID on the response, records the endpoint's latency histogram,
// emits the structured request log, and retains slow requests in the
// /v1/slow ring.
func (s *Server) traced(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		tr := obs.NewTrace(id)
		w.Header().Set(obs.RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
		d := time.Since(t0)

		ep := endpointLabel(r.URL.Path)
		s.obs.Hist("http_" + ep).Record(d)
		s.obs.Hist(obs.DefaultSLOStage).Record(d)
		// Server-side failures (5xx) feed the error-rate SLO stages;
		// client errors (4xx) are the caller's fault and don't burn
		// budget. /v1/health is exempt: its 503 *reports* a paging
		// objective, and counting it as an error would keep the budget
		// burning on probe traffic alone.
		if sw.status >= http.StatusInternalServerError && ep != "health" {
			s.obs.Hist("http_" + ep + obs.ErrorsSuffix).Inc()
			s.obs.Hist(obs.DefaultSLOStage + obs.ErrorsSuffix).Inc()
		}
		attrs := tr.Attrs()
		if s.opts.Logger != nil {
			args := make([]any, 0, 12+len(attrs))
			args = append(args, "id", id, "endpoint", ep, "method", r.Method,
				"status", sw.status, "dur", d)
			for i := 0; i+1 < len(attrs); i += 2 {
				args = append(args, attrs[i], attrs[i+1])
			}
			if st := tr.Stages(); len(st) > 0 {
				args = append(args, "stages", stagesString(st))
			}
			s.opts.Logger.Info("request", args...)
		}
		if s.opts.SlowThreshold > 0 && d >= s.opts.SlowThreshold {
			e := obs.SlowEntry{
				ID:       id,
				Endpoint: ep,
				Status:   sw.status,
				Start:    t0,
				DurNS:    int64(d),
				Stages:   tr.Stages(),
			}
			for i := 0; i+1 < len(attrs); i += 2 {
				switch attrs[i] {
				case "key", "spec":
					e.Detail = attrs[i+1]
				case "source":
					e.Source = attrs[i+1]
				}
			}
			s.slow.Add(e)
		}
	})
}

// statusWriter captures the handler's status code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush passes streaming flushes through to the wrapped writer, so the
// SSE handler behind the middleware can push events incrementally.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// endpointLabel maps a request path to its histogram/log label:
// "/v1/place" -> "place", "/healthz" -> "healthz".
func endpointLabel(path string) string {
	p := strings.TrimPrefix(path, "/v1/")
	p = strings.Trim(p, "/")
	if p == "" {
		return "root"
	}
	return strings.ReplaceAll(p, "/", "_")
}

// stagesString renders stage timings as "solve=12.3ms store_write=80µs"
// for the request log.
func stagesString(st []obs.StageTiming) string {
	var b strings.Builder
	for i, t := range st {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", t.Stage, time.Duration(t.DurNS))
	}
	return b.String()
}

// Backend exposes the backend the server fronts.
func (s *Server) Backend() backend.Backend { return s.b }

// Tier exposes the stack every handler goes through: the mounted cache
// tier, whose Inner is the outlive-the-leader wrapper over Backend().
func (s *Server) Tier() *backend.Cached { return s.tier }

// Handler returns the server's HTTP handler (for tests and embedding),
// tracing middleware included.
func (s *Server) Handler() http.Handler { return s.h }

// Stats snapshots the counters: the HTTP layer's own (requests), the
// mounted tier's (LRU hits, coalesces) and the backend's (store gauges,
// hit/compute/reject counts). The backend is asked directly, not through
// the tier: the daemon reports the backend it fronts ("local"), and the
// tier's hits are already timed inside http_place.
func (s *Server) Stats() Stats {
	bs := s.b.Stats()
	cs := s.tier.CacheStats()
	t := s.obs.Snapshot()
	t.Merge(bs.Telemetry)
	return Stats{
		Backend:       bs.Backend,
		StoreCells:    bs.Cells,
		MemoEntries:   bs.MemoEntries,
		ReadOnly:      bs.ReadOnly,
		Queries:       s.c.queries.Load(),
		CellLookups:   s.c.cells.Load(),
		PlaceRequests: s.c.places.Load(),
		CacheHits:     cs.Hits,
		CacheMisses:   cs.Misses,
		StoreHits:     bs.StoreHits,
		MemoHits:      bs.MemoHits,
		Coalesced:     cs.Coalesced,
		Computed:      bs.Computed,
		Rejected:      bs.Rejected,
		InFlight:      bs.InFlight,
		CachedEntries: cs.Entries,

		Predicted:        bs.Predicted,
		PredictFallbacks: bs.PredictFallbacks,
		Refined:          bs.Refined,
		RefineDropped:    bs.RefineDropped,
		Surfaces:         bs.Surfaces,
		SurfaceSamples:   bs.SurfaceSamples,

		Replications:  s.c.replications.Load(),
		ReplicaFactor: bs.ReplicaFactor,
		Replicated:    bs.Replicated,
		ReadRepairs:   bs.ReadRepairs,
		HintsQueued:   bs.HintsQueued,
		HintsDrained:  bs.HintsDrained,
		HintsDropped:  bs.HintsDropped,
		HintsPending:  bs.HintsPending,
		Healed:        bs.Healed,
		HealSweeps:    bs.HealSweeps,

		Replicas: bs.Replicas,

		SlowRequests: s.slow.Total(),
		Telemetry:    t,
	}
}

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: no new connections, in-flight requests (and therefore
// in-flight computations, which run inside their leader's handler) drain
// within DrainTimeout. A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	//nolint:ctxflow // ctx is already cancelled here; the drain deadline must outlive it
	drain, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe binds addr and calls Serve. notify, when non-nil,
// receives the bound address before serving starts — how callers (and the
// smoke test) learn the port when addr ends in ":0".
func (s *Server) ListenAndServe(ctx context.Context, addr string, notify func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if notify != nil {
		notify(ln.Addr())
	}
	return s.Serve(ctx, ln)
}

// handleHealth answers liveness from the server alone — no backend
// stats call, so a cluster-front daemon's health never depends on (or
// waits for) its downstream replicas. Cell counts live in /v1/stats.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleSlow serves the bounded ring of recent slow requests, newest
// first — the "what just hurt" view with each request's ID, endpoint,
// status and per-stage breakdown.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	entries := s.slow.Snapshot()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, SlowResponse{Total: s.slow.Total(), Requests: entries})
}

// handleMetrics renders the counters, stage histograms, SLO burn gauges
// and the health gauge in the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	scalars := []obs.Metric{
		{Name: "lowlat_store_cells", Kind: "gauge", Help: "Cells in the backend's visible store.", Value: float64(st.StoreCells)},
		{Name: "lowlat_memo_entries", Kind: "gauge", Help: "Calibration memo entries in the backend's visible store.", Value: float64(st.MemoEntries)},
		{Name: "lowlat_queries_total", Kind: "counter", Help: "Query and summary requests served.", Value: float64(st.Queries)},
		{Name: "lowlat_cell_lookups_total", Kind: "counter", Help: "Cell lookups served.", Value: float64(st.CellLookups)},
		{Name: "lowlat_place_requests_total", Kind: "counter", Help: "Place requests accepted.", Value: float64(st.PlaceRequests)},
		{Name: "lowlat_cache_hits_total", Kind: "counter", Help: "Requests answered by the server's LRU.", Value: float64(st.CacheHits)},
		{Name: "lowlat_cache_misses_total", Kind: "counter", Help: "Requests that consulted the LRU and fell through.", Value: float64(st.CacheMisses)},
		{Name: "lowlat_store_hits_total", Kind: "counter", Help: "Places answered from persisted cells.", Value: float64(st.StoreHits)},
		{Name: "lowlat_memo_hits_total", Kind: "counter", Help: "Places that derived their key from the calibration memo.", Value: float64(st.MemoHits)},
		{Name: "lowlat_coalesced_total", Kind: "counter", Help: "Places that joined another request's in-flight computation.", Value: float64(st.Coalesced)},
		{Name: "lowlat_computed_total", Kind: "counter", Help: "Placement engine invocations.", Value: float64(st.Computed)},
		{Name: "lowlat_rejected_total", Kind: "counter", Help: "Places refused by admission control (429).", Value: float64(st.Rejected)},
		{Name: "lowlat_in_flight", Kind: "gauge", Help: "Currently admitted computations.", Value: float64(st.InFlight)},
		{Name: "lowlat_cached_entries", Kind: "gauge", Help: "Entries in the server's LRU response cache.", Value: float64(st.CachedEntries)},
		{Name: "lowlat_predicted_total", Kind: "counter", Help: "Places answered by the interpolation fast path.", Value: float64(st.Predicted)},
		{Name: "lowlat_predict_fallbacks_total", Kind: "counter", Help: "Predict-path requests handed to the exact path.", Value: float64(st.PredictFallbacks)},
		{Name: "lowlat_replications_total", Kind: "counter", Help: "Cells accepted through /v1/replicate.", Value: float64(st.Replications)},
		{Name: "lowlat_replicated_total", Kind: "counter", Help: "Replication copies pushed to secondary owners.", Value: float64(st.Replicated)},
		{Name: "lowlat_healed_total", Kind: "counter", Help: "Cells copied onto owners by anti-entropy sweeps.", Value: float64(st.Healed)},
		{Name: "lowlat_slow_requests_total", Kind: "counter", Help: "Requests that crossed the slow threshold.", Value: float64(st.SlowRequests)},
	}
	h := s.Health()
	scalars = append(scalars,
		obs.Metric{Name: "lowlat_health", Kind: "gauge",
			Help: "Serving health: 0 ok, 1 degraded, 2 critical.", Value: float64(healthValue(h.Status))},
		obs.Metric{Name: "lowlat_down_replicas", Kind: "gauge",
			Help: "Replicas currently marked down behind this front.", Value: float64(len(h.DownReplicas))})
	for _, so := range h.SLOs {
		lbl := [][2]string{{"objective", so.Objective}}
		scalars = append(scalars,
			obs.Metric{Name: "lowlat_slo_state", Kind: "gauge", Labels: lbl,
				Help: "SLO state per objective: 0 ok, 1 warn, 2 page.", Value: float64(sloValue(so.State))},
			obs.Metric{Name: "lowlat_slo_burn_long", Kind: "gauge", Labels: lbl,
				Help: "Error-budget burn rate over the objective's stated window.", Value: so.BurnLong},
			obs.Metric{Name: "lowlat_slo_burn_short", Kind: "gauge", Labels: lbl,
				Help: "Error-budget burn rate over the short confirmation window.", Value: so.BurnShort},
			obs.Metric{Name: "lowlat_slo_budget_remaining", Kind: "gauge", Labels: lbl,
				Help: "Fraction of the objective's error budget left in its window.", Value: so.BudgetRemaining})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteMetrics(w, "lowlat", scalars, st.Stages)
}

// healthValue maps a health status to its gauge value.
func healthValue(status string) int {
	switch status {
	case HealthCritical:
		return 2
	case HealthDegraded:
		return 1
	default:
		return 0
	}
}

// sloValue maps an SLO state to its gauge value.
func sloValue(st obs.SLOState) int {
	switch st {
	case obs.SLOPage:
		return 2
	case obs.SLOWarn:
		return 1
	default:
		return 0
	}
}

// parseFilter builds a sweep.Filter from query parameters. Like the CLI,
// presence (not a sentinel value) decides whether seed/headroom filter.
func parseFilter(r *http.Request) (sweep.Filter, error) {
	q := r.URL.Query()
	f := sweep.Filter{
		Net:    q.Get("net"),
		Class:  q.Get("class"),
		Scheme: q.Get("scheme"),
	}
	if q.Has("seed") {
		v, err := strconv.ParseInt(q.Get("seed"), 10, 64)
		if err != nil {
			return f, errf(http.StatusBadRequest, "bad seed %q", q.Get("seed"))
		}
		f.Seed = &v
	}
	if q.Has("headroom") {
		v, err := strconv.ParseFloat(q.Get("headroom"), 64)
		if err != nil {
			return f, errf(http.StatusBadRequest, "bad headroom %q", q.Get("headroom"))
		}
		f.Headroom = &v
	}
	return f, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.c.queries.Add(1)
	f, err := parseFilter(r)
	if err != nil {
		writeError(w, err)
		return
	}
	results := s.tier.Query(f)
	if results == nil {
		results = []store.Result{}
	}
	writeJSON(w, http.StatusOK, QueryResponse{Count: len(results), Results: results})
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	s.c.queries.Add(1)
	f, err := parseFilter(r)
	if err != nil {
		writeError(w, err)
		return
	}
	points := 11
	if v := r.URL.Query().Get("points"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 || n > 1001 {
			writeError(w, errf(http.StatusBadRequest, "bad points %q (want 2..1001)", v))
			return
		}
		points = n
	}
	writeJSON(w, http.StatusOK, Summarize(s.tier.Query(f), points))
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	s.c.cells.Add(1)
	keyStr := r.URL.Query().Get("key")
	key, err := store.ParseCellKey(keyStr)
	if err != nil {
		writeError(w, errf(http.StatusBadRequest, "%v", err))
		return
	}
	ks := key.String()
	tr := obs.TraceFrom(r.Context())
	tr.Annotate("key", ks)
	res, src, ok := s.tier.LookupSourced(key)
	if !ok {
		writeError(w, errf(http.StatusNotFound, "cell %s not stored", ks))
		return
	}
	tr.Annotate("source", string(src))
	writeJSON(w, http.StatusOK, CellResponse{Source: string(src), Result: res})
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	s.c.places.Add(1)
	var req PlaceRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, errf(http.StatusBadRequest, "bad request body: %v", err))
		return
	}
	locality := 1.0
	if req.Locality != nil {
		locality = *req.Locality
	}
	spec := store.CellSpec{
		Net:      req.Net,
		Seed:     req.Seed,
		Scheme:   req.Scheme,
		Headroom: req.Headroom,
		Load:     req.Load,
		Locality: locality,
	}.Normalized()
	// Cheap validation up front: a malformed request answers 400 without
	// touching the cache tier or the backend. Net-term resolution (graph
	// construction) stays inside the flight.
	if _, err := backend.CheckSpec(spec); err != nil {
		writeError(w, err)
		return
	}

	tr := obs.TraceFrom(r.Context())
	tr.Annotate("spec", spec.String())
	res, src, err := s.tier.PlaceSourced(r.Context(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	tr.Annotate("source", string(src))
	writeJSON(w, http.StatusOK, PlaceResponse{
		Source:    string(src),
		Predicted: src == backend.SourcePredicted,
		Result:    res,
	})
}

// handleReplicate accepts one already-computed cell from a cluster peer
// — the write half of replication and anti-entropy healing. The body is
// the cell's canonical wire form (store.MarshalResult bytes); a keyless
// record is rejected as corruption, and a backend that accepts no writes
// (read-only mount, remote proxy without the extension) answers 403. The
// tier's Put writes through and warms the LRU, so a healed cell serves
// hot immediately.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, errf(http.StatusBadRequest, "read body: %v", err))
		return
	}
	res, err := store.UnmarshalResult(body)
	if err != nil {
		writeError(w, errf(http.StatusBadRequest, "%v", err))
		return
	}
	if err := s.tier.Put(res); err != nil {
		writeError(w, err)
		return
	}
	s.c.replications.Add(1)
	writeJSON(w, http.StatusOK, ReplicateResponse{Stored: true, Key: res.Key.String()})
}

// handleDigest answers the store's key inventory: always the count and
// the order-independent key-set digest, and the full canonical key list
// when asked with ?keys=1. Two daemons holding equal key sets answer
// equal digests whatever order their stores filled in. A backend that
// keeps no inventory answers 501.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	resp := DigestResponse{}
	if r.URL.Query().Get("keys") == "1" {
		keys, err := s.tier.Keys(r.Context())
		if err != nil {
			writeError(w, err)
			return
		}
		resp.Count = len(keys)
		resp.Digest = store.DigestKeys(keys).String()
		resp.Keys = make([]string, len(keys))
		for i, k := range keys {
			resp.Keys[i] = k.String()
		}
	} else {
		d, n, err := s.tier.KeyDigest(r.Context())
		if err != nil {
			writeError(w, err)
			return
		}
		resp.Count = n
		resp.Digest = d.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeJSON encodes v with a trailing newline (curl-friendly).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode failure here means the connection is gone; the status is
	// already committed, so there is nothing useful left to report.
	_ = enc.Encode(v)
}

// writeError renders an error as {"error": ...} with its HTTP status.
// Backend error kinds map onto the API's status contract — overload to
// 429, refuse-to-compute to 403, bad specs to 400, unreachable
// downstreams to 502, a capability the backend lacks to 501 — and a
// StatusError from a proxied daemon passes its code through, so a front
// daemon re-renders its cluster's answers faithfully.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var ae *apiError
	var se *StatusError
	var spe *backend.SpecError
	switch {
	case errors.As(err, &ae):
		code = ae.code
	case errors.As(err, &se):
		code = se.Code
	case errors.As(err, &spe):
		code = http.StatusBadRequest
	case errors.Is(err, backend.ErrOverloaded):
		code = http.StatusTooManyRequests
	case errors.Is(err, backend.ErrNotStored), errors.Is(err, store.ErrReadOnly):
		code = http.StatusForbidden
	case errors.Is(err, backend.ErrUnavailable):
		code = http.StatusBadGateway
	case errors.Is(err, errors.ErrUnsupported):
		code = http.StatusNotImplemented
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
