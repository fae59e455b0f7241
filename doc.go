// Package lowlat reproduces "On low-latency-capable topologies, and their
// impact on the design of intra-domain routing" (Gvozdiev, Vissicchio,
// Karp, Handley — SIGCOMM 2018) as a self-contained Go library.
//
// The root package is the public facade: topology construction and the
// synthetic zoo, GraphML/REPETITA file I/O, the APA/LLPD metrics (§2),
// gravity-model traffic generation (§3), the routing schemes of the
// landscape study (SP, B4, MPLS-TE, MinMax, MinMax-K, latency-optimal LP
// with the §4 headroom dial), the LDR controller (§5, Figures 11-14), a
// fluid placement simulator with a closed-loop control-cycle driver, the
// parallel scenario engine that fans experiment sweeps out across
// the CPUs (RunScenarios), the dynamic-workload layer that replays
// failure and demand-churn timelines with per-epoch re-optimization
// (RunDynamics), and the persistence layer: a content-addressed,
// crash-tolerant scenario-result store (OpenResultStore) with a
// resumable sweep orchestrator over it (RunSweep) that recomputes only
// the cells a previous — possibly killed — run never finished, and
// slices the accumulated results into CSV/JSON (ExportSweep); the
// serving layer: an always-on HTTP query daemon over a result store
// (Serve, cmd/lowlatd) with request coalescing, LRU caching, bounded
// on-demand computation and a typed client (NewServeClient); and the
// placement-backend layer: one access API (PlacementBackend — Lookup by
// content key, Place by request spec, Query, Stats) with four
// interchangeable implementations — in-process compute over a writable
// store (NewLocalBackend), a read-only store mount (NewStoreBackend), a
// remote daemon with client-side 429 backoff (NewRemoteBackend), a
// consistent-hash sharded cluster of backends with health-marked
// failover and optional R-owner replication — replicated writes,
// read-repair, hinted handoff and anti-entropy healing
// (NewClusterBackend, ClusterBackend.Heal) — and a client-side LRU +
// request-coalescing cache tier stackable over any of them
// (NewCachedBackend) — so sweeps, figure drivers, daemons and CLIs all
// scale from one process to a replicated serving tier without changing
// call sites (ServeBackend composes daemons over clusters);
// and the predictive fast path: a landscape-interpolation layer
// (NewSurfaceIndex) trained from stored results that answers Place
// queries in microseconds by inverse-distance-weighted interpolation
// over (headroom, load, locality), wrapped around any backend as
// NewPredictiveBackend with confidence-bounded fallback to the exact
// solver and optional background refinement; and the observability
// plane threaded through all of the above: per-stage latency histograms
// merged cluster-wide into /v1/stats (StageSnapshot), X-Request-ID
// tracing from the HTTP edge to the owning replica (RequestIDHeader),
// structured request logs, a slow-request ring (/v1/slow, SlowRequest),
// a Prometheus-text /metrics endpoint and an opt-in pprof listener; and
// the live health plane on top of it: rolling 1m/5m/1h latency windows
// per stage, a declarative SLO/error-budget engine (ParseObjectives)
// with multi-window burn-rate alerting on /v1/health (HealthReport), a
// bounded journal of cluster state transitions served with a cursor on
// /v1/events (ClusterEvent), and the /v1/watch SSE stream behind
// `lowlat watch` (WatchSnapshot).
//
// The implementation lives under internal/:
//
//   - internal/metrics — the APA and LLPD topology metrics (§2)
//   - internal/topo — the synthetic topology zoo standing in for the
//     Internet Topology Zoo, plus GTS-, Cogent- and Google-like networks
//   - internal/topoio — Topology Zoo GraphML and REPETITA file formats
//   - internal/tmgen — gravity-model traffic with the locality LP (§3)
//   - internal/routing — SP, B4, MPLS-TE, MinMax, MinMax-K10, the
//     Figure 12/13 latency-optimal LP with the headroom dial, and the
//     link-based MCF baseline
//   - internal/core — the LDR controller: predict, optimize, appraise
//     multiplexing, scale up (§5, Figures 11-14)
//   - internal/mux, internal/predict, internal/trace — the statistical
//     multiplexing checks, Algorithm 1 plus the landscape-interpolation
//     surfaces behind the predictive fast path, and the CAIDA-like
//     trace generator behind §4
//   - internal/sim — fluid simulation of placements under live traffic,
//     plus the minute-by-minute closed-loop driver
//   - internal/engine — the bounded-parallel scenario runner every
//     experiment sweep fans out through, with deterministic collection
//   - internal/dynamics — failure models (single/double link, node,
//     seeded random walks), demand churn (diurnal, surges, trace-driven
//     replay) and the per-epoch re-optimization timeline behind
//     RunDynamics and the fig_dynamics experiment
//   - internal/store — the append-only, sharded JSONL result store keyed
//     by (graph fingerprint, matrix digest, scheme name, scheme config),
//     with torn-tail recovery and compaction
//   - internal/sweep — the declarative sweep grid, the resumable
//     orchestrator that dispatches only store-missing cells (consulting
//     the store's calibration memo to skip matrix regeneration), and
//     the CSV/JSON exporters
//   - internal/backend — the placement-backend API (Lookup / Place /
//     Query / Stats) and its Local (engine over a writable store) and
//     Store (read-only) implementations: the seam every consumer —
//     sweeps, figure drivers, daemons, CLIs — accesses the landscape
//     through; plus the wrappers around it, all embedding one
//     capability-forwarding base: Predictive (interpolated answers with
//     exact fallback and background refinement) and Cached (the one
//     LRU + request-coalescing tier, on either side of the wire)
//   - internal/serve — the query-serving daemon: a thin HTTP skin that
//     mounts backend.Cached over any placement backend (coalesced
//     on-demand placement, an LRU over content keys), 429 backpressure
//     from the backend's bounded in-flight computation limit, per-class CDF
//     summaries, stats counters, graceful drain, the typed client, and
//     the Remote backend adapting that client (with seeded-jitter 429
//     backoff) back to the interface
//   - internal/cluster — the consistent-hash sharded cluster backend:
//     virtual-node ring on the content key, deterministic key→replica
//     assignment, per-replica health marks with rerouting to the ring
//     successor, fan-out + merge queries; with Options.Replicas > 1 the
//     ring becomes a replicated self-healing tier — writes land on each
//     key's first R owners, reads repair divergent copies by
//     last-write-wins over canonical bytes, hinted handoff carries
//     writes across replica downtime, and anti-entropy sweeps (Heal)
//     rebuild even a replica restored from an empty store
//   - internal/obs — the dependency-free observability kernel the
//     serving tiers share: lock-cheap log-bucketed latency histograms
//     with mergeable snapshots and lock-free rolling windows, request
//     traces carried by context, the bounded slow-request ring, the
//     Prometheus text renderer, the SLO/error-budget engine, and the
//     bounded event journal
//   - internal/experiments — one driver per results figure plus
//     fig_dynamics, all routed through the engine; the landscape and
//     headroom drivers optionally checkpoint through a result backend
//
// The benchmarks in bench_test.go regenerate every results figure, and
// bench_new_test.go covers the simulator, file I/O, wire protocol, and
// greedy-scheme ablations; see README.md for the quickstart, package map
// and figure-regeneration instructions, docs/ARCHITECTURE.md for the
// serving-system layer map and the life of a /v1/place request,
// docs/OPERATIONS.md for daemon flags, /v1/stats counter semantics,
// metrics and request tracing, and the replica failure-recovery and
// SLO-alerting runbooks, and docs/DEVELOPING.md for the repo's
// mechanically-enforced invariants: the internal/analysis suite
// (detrange, atomicguard, locked, sentinelerr, ctxflow, goexit) run by
// `make analyze` and the go test self-gate, the `// guarded by mu`
// annotation grammar, and the nolint suppression grammar.
package lowlat
