package workload

// Unit strings, as BENCHMARK.json spells them.
const (
	unitS     = "s"
	unitMs    = "ms"
	unitUs    = "us"
	unitNs    = "ns"
	unitRate  = "1/s"
	unitKiB   = "KiB"
	unitMiB   = "MiB"
	unitB     = "B"
	unitCount = "count"
	unitRatio = "ratio"
)

// Def names one metric and its unit.
type Def struct {
	Name, Unit string
}

// EndToEnd lists the metrics every workload reports with tracing off, in
// BENCHMARK.json's order. These are the six of the issue's fourteen that
// are defined on all six workloads; the contract the acceptance driver
// enforces wants every end-to-end metric from every workload, never
// zero, so the workload-specific ones (tails, open-loop latency,
// resume_s, open_s, bytes_per_cell, fail_ratio) are reported under the
// same names in the traced run's list instead.
var EndToEnd = []Def{
	{"setup_s", unitS},
	{"ops_per_s", unitRate},
	{"lat_ms_p50", unitMs},
	{"cpu_ms_per_op", unitMs},
	{"alloc_kb_per_op", unitKiB},
	{"peak_rss_mb", unitMiB},
}

// PerLayer lists every metric of the traced run, in BENCHMARK.json's
// order. A workload reports 0 for a layer it does not exercise; the
// README's table says which workload measures which.
var PerLayer = []Def{
	// The issue's workload-specific end-to-end metrics, taken in the
	// traced run's untraced pass.
	{"lat_ms_p90", unitMs},
	{"lat_ms_p99", unitMs},
	{"open_lat_ms_p50", unitMs},
	{"open_lat_ms_p99", unitMs},
	{"fail_ratio", unitRatio},
	{"resume_s", unitS},
	{"open_s", unitS},
	{"bytes_per_cell", unitB},

	{"tmgen.generate_ms_p50", unitMs},
	{"tmgen.generate_ms_p90", unitMs},
	{"tmgen.share", unitRatio},

	{"routing.solve_ms_p50", unitMs},
	{"routing.solve_ms_p90", unitMs},
	{"routing.solve_ms_p50.sp", unitMs},
	{"routing.solve_ms_p50.b4", unitMs},
	{"routing.solve_ms_p50.minmax", unitMs},
	{"routing.solve_ms_p50.ldr", unitMs},
	{"routing.share", unitRatio},
	{"routing.warm_over_cold", unitRatio},
	{"routing.lp_runs_per_solve", unitCount},
	{"routing.lp_pivots_per_solve", unitCount},
	{"routing.grow_rounds_per_solve", unitCount},

	{"graph.ksp_us_per_path", unitUs},
	{"graph.fingerprint_us_p50", unitUs},

	{"core.optimize_ms_p50", unitMs},
	{"core.mux_rounds_p50", unitCount},
	{"core.lp_pivots_per_cycle", unitCount},
	{"core.alloc_mb_per_cycle", unitMiB},
	{"mux.check_link_us_p50", unitUs},

	{"dynamics.epoch_ms_p50", unitMs},
	{"dynamics.run_ms_p50", unitMs},

	{"engine.dispatch_us_p50", unitUs},
	{"engine.speedup", unitRatio},

	{"sweep.plan_s", unitS},
	{"sweep.resolve_net_us_p50", unitUs},
	{"sweep.generated", unitCount},
	{"sweep.memo_hits", unitCount},
	{"sweep.reused", unitCount},
	{"sweep.computed", unitCount},

	{"store.put_us_p50", unitUs},
	{"store.put_us_p99", unitUs},
	{"store.get_ns_p50", unitNs},
	{"store.open_ms_per_10k", unitMs},
	{"store.keys_ms_per_10k", unitMs},
	{"store.digest_ms_per_10k", unitMs},
	{"store.query_ms_per_10k", unitMs},
	{"store.compact_ms_per_10k", unitMs},
	{"store.marshal_us_p50", unitUs},
	{"store.unmarshal_us_p50", unitUs},
	{"store.keyfor_us_p50", unitUs},
	{"store.skipped_lines", unitCount},

	{"backend.local_hit_us_p50", unitUs},
	{"backend.local_overhead_us_p50", unitUs},
	{"backend.cached_hit_ns_p50", unitNs},
	{"backend.predict_us_p50", unitUs},
	{"backend.store_hits", unitCount},
	{"backend.memo_hits", unitCount},
	{"backend.computed", unitCount},
	{"backend.rejected", unitCount},
	{"backend.stage_matrix_ms_p50", unitMs},
	{"backend.stage_solve_ms_p50", unitMs},
	{"backend.stage_store_write_us_p50", unitUs},

	{"predict.train_ms", unitMs},
	{"predict.fallback_ratio", unitRatio},

	{"serve.handler_cache_hit_us_p50", unitUs},
	{"serve.handler_store_hit_us_p50", unitUs},
	{"serve.client_rtt_us_p50", unitUs},
	{"serve.transport_us_p50", unitUs},
	{"serve.remote_hop_us_p50", unitUs},
	{"serve.cache_hit_ratio", unitRatio},
	{"serve.coalesced", unitCount},
	{"serve.rejected_429", unitCount},
	{"serve.http_place_us_p50_reported", unitUs},
	{"serve.client_minus_server_us_p50", unitUs},

	{"cluster.place_cold_ms_p50", unitMs},
	{"cluster.place_warm_us_p50", unitUs},
	{"cluster.lookup_us_p50", unitUs},
	{"cluster.put_us_p50", unitUs},
	{"cluster.replicate_overhead_us_p50", unitUs},
	{"cluster.heal_converged_ms", unitMs},
	{"cluster.replicated", unitCount},
	{"cluster.read_repairs", unitCount},
	{"cluster.rerouted", unitCount},
	{"cluster.hints_queued", unitCount},

	{"obs.observe_ns", unitNs},
	{"obs.snapshot_us", unitUs},

	{"loadgen.send_lag_us_p50", unitUs},
	{"loadgen.send_lag_us_p99", unitUs},
	{"loadgen.backlog_us_p99", unitUs},
	{"loadgen.achieved_rps", unitRate},
	{"loadgen.class_share.hit", unitRatio},
	{"loadgen.class_share.cell", unitRatio},
	{"loadgen.class_share.predicted", unitRatio},
	{"loadgen.class_share.miss", unitRatio},
	{"loadgen.lat_ms_p50.hit", unitMs},
	{"loadgen.lat_ms_p50.cell", unitMs},
	{"loadgen.lat_ms_p50.predicted", unitMs},
	{"loadgen.lat_ms_p50.miss", unitMs},
	{"loadgen.source_share.cache", unitRatio},
	{"loadgen.source_share.store", unitRatio},
	{"loadgen.source_share.computed", unitRatio},
	{"loadgen.source_share.predicted", unitRatio},

	{"go.gc_count", unitCount},
	{"go.gc_pause_total_ms", unitMs},
	{"go.mallocs_per_op", unitCount},

	{"trace.overhead_ratio", unitRatio},
	{"trace.unaccounted_share", unitRatio},
	{"trace.spans", unitCount},
}

// Names are the six workloads, in the order the suite runs them.
var Names = []string{"place_cold", "sweep_grid", "reopt_loop", "serve_hot", "cluster_mixed", "store_rw"}
