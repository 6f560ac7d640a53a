package main

// metricDef names one metric the benchmark emits. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// bench_test.go fails when the two drift apart.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the daemon sees; every workload
// reports all of them from its untraced pass.
var endToEnd = []metricDef{
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, in layer
// order. A metric that does not apply to a workload reports 0 there.
var perLayer = []metricDef{
	{"sweepd.submit_ms_p50", "ms", "lower", 0},
	{"sweepd.first_result_ms_p50", "ms", "lower", 0},
	{"sweepd.done_lag_ms_p50", "ms", "lower", 0},
	{"sweepd.job_p50_ms", "ms", "lower", 0},
	{"sweepd.job_p95_ms", "ms", "lower", 0},
	{"sweepd.read_p50_ms", "ms", "lower", 0},
	{"sweepd.overhead_share", "ratio", "lower", 0},
	{"sweepd.revalidate_ms_p50", "ms", "lower", 0},
	{"sweepd.summary_ms_p50", "ms", "lower", 0},
	{"process.alloc_mb_per_kcell", "MB/kcell", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"cache.put_us", "us", "lower", 0},
	{"cache.get_us", "us", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"sched.forward_share", "ratio", "higher", 0},
	{"sched.placement_ms_p50", "ms", "lower", 0},
	{"shard.remote_cell_share", "ratio", "higher", 0},
	{"shard.lease_us_per_cell", "us", "lower", 0},
	{"cluster.mesh_s", "s", "lower", 0},
	{"store.create_job_us", "us", "lower", 0},
	{"store.append_us", "us", "lower", 0},
	{"store.sync_us", "us", "lower", 0},
	{"store.load_results_ms", "ms", "lower", 0},
	{"store.bytes_per_cell", "B", "lower", 0},
	{"replica.ready_ms_p50", "ms", "lower", 0},
	{"replica.read_ms_p50", "ms", "lower", 0},
	{"replica.redirect_share", "ratio", "lower", 0},
	{"ncgio.marshal_us", "us", "lower", 0},
	{"ncgio.unmarshal_us", "us", "lower", 0},
	{"ncgio.trajectory_marshal_us", "us", "lower", 0},
	{"ncgio.bytes_per_cell", "B", "lower", 0},
	{"gen.factory_us", "us", "lower", 0},
	{"dynamics.run_ms_p50", "ms", "lower", 0},
	{"dynamics.run_ms_p95", "ms", "lower", 0},
	{"dynamics.self_share", "ratio", "lower", 0},
	{"dynamics.rounds_per_cell", "count", "lower", 0},
	{"dynamics.evals_per_round", "count", "lower", 0},
	{"dynamics.eval_skip_ratio", "ratio", "higher", 0},
	{"dialect.sum-exact.cells_per_s", "cells/s", "higher", 0},
	{"dialect.sum-large.cells_per_s", "cells/s", "higher", 0},
	{"dialect.sum-exact.moves_per_cell", "count", "lower", 0},
	{"dialect.sum-large.moves_per_cell", "count", "lower", 0},
	{"dialect.sum-exact.social_cost_mean", "cost", "lower", 0},
	{"dialect.sum-large.social_cost_mean", "cost", "lower", 0},
	{"bestresponse.respond_us_p50", "us", "lower", 0},
	{"bestresponse.respond_us_p95", "us", "lower", 0},
	{"bestresponse.calls_per_cell", "count", "lower", 0},
	{"bestresponse.improving_ratio", "ratio", "higher", 0},
	{"bestresponse.allocs_per_call", "count", "lower", 0},
	{"bestresponse.share", "ratio", "lower", 0},
	{"mds.solve_us_p50", "us", "lower", 0},
	{"mds.allocs_per_solve", "count", "lower", 0},
	{"mds.share_of_respond", "ratio", "lower", 0},
	{"view.extract_us", "us", "lower", 0},
	{"view.balldist_us", "us", "lower", 0},
	{"view.ball_size_mean", "count", "lower", 0},
	{"graph.multibfs_us", "us", "lower", 0},
	{"graph.csr_us", "us", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}
