// Package lowlat reproduces "On low-latency-capable topologies, and their
// impact on the design of intra-domain routing" (Gvozdiev, Vissicchio,
// Karp, Handley — SIGCOMM 2018) as a self-contained Go library.
//
// The root package is the documented library surface: what the programs
// under examples/ and the README use, and nothing more.
//
//   - Topologies: NewBuilder, the Grid/Ring/Tree generators, the
//     116-network synthetic zoo (Zoo) with GTS- and Cogent-like stand-ins,
//     LLPD-guided growth (GrowTopology), and GraphML/REPETITA file I/O
//     (ReadTopologyFile, WriteGraphML, WriteRepetita).
//   - The §2 metrics: APADistribution and LLPD.
//   - Traffic (§3, §4): gravity-model matrices calibrated to a load target
//     (GenerateTraffic, GenerateTrafficSet, NewMatrix), synthetic backbone
//     traces and aggregate series, and the Algorithm 1 predictor
//     (Predictor, EvaluateTrace).
//   - Routing: the paper's schemes (Schemes, NewShortestPath, NewB4,
//     NewMinMax, NewMinMaxK, NewMPLSTE, NewLatencyOptimal with the §4
//     headroom dial) and the LDR controller of §5 (NewController).
//   - Running them: the parallel scenario engine (RunScenarios), whose
//     output is byte-identical at every worker count, and the Figure 11
//     closed loop (RunClosedLoop, RunClosedLoopBatch).
//   - Persistence: the content-addressed, crash-tolerant result store
//     (OpenResultStore) and the resumable sweep over it (ParseSweepGrid,
//     RunSweep, ExportSweep), which recomputes only the cells an earlier,
//     possibly killed, run never finished.
//   - Serving: one placement-backend API (PlacementBackend) with its
//     constructors — compute over a writable store (NewLocalBackend), a
//     read-only mount (NewStoreBackend), a remote daemon
//     (NewRemoteBackend), a consistent-hash cluster with optional
//     replication (NewClusterBackend), a client-side cache tier
//     (NewCachedBackend) and the predictive fast path over trained
//     interpolation surfaces (NewPredictiveBackend, NewSurfaceIndex) —
//     served over HTTP by Serve or ServeBackend and read back with the
//     typed client (NewServeClient).
//
// Everything else — dynamic workloads, the experiment registry, the
// multiplexing checks, the serving and cluster internals (replication,
// healing, the health plane, observability) — is reached through the
// lowlat and lowlatd binaries or, inside this module, the packages that
// own it.
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
//     `lowlat dynamics` and the fig_dynamics experiment
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
//     with lock-free rolling windows, merged up the serving chain as one
//     Telemetry value (cumulative stages plus windows), request
//     traces carried by context, the bounded slow-request ring, the
//     Prometheus text renderer, the SLO/error-budget engine, and the
//     bounded event journal
//   - internal/experiments — one driver per results figure plus
//     fig_dynamics, all routed through the engine; the landscape and
//     headroom drivers optionally checkpoint through a result backend
//
// The benchmarks in bench_test.go regenerate every results figure, and
// bench_new_test.go covers the simulator, file I/O and the greedy-scheme
// ablations; see README.md for the quickstart, package map
// and figure-regeneration instructions, docs/ARCHITECTURE.md for the
// serving-system layer map and the life of a /v1/place request,
// docs/OPERATIONS.md for daemon flags, /v1/stats counter semantics,
// metrics and request tracing, and the replica failure-recovery and
// SLO-alerting runbooks, and docs/DEVELOPING.md for the repo's
// mechanically-enforced invariants: the internal/analysis suite
// (detrange, atomicguard, locked, sentinelerr, ctxflow, goexit) run by
// its go test self-gate (`make analyze`), the `// guarded by mu`
// annotation grammar, and the nolint suppression grammar.
package lowlat
