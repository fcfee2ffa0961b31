package main

// metricDef is one row of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// unitsOf maps each metric's name to its unit.
func unitsOf(defs []metricDef) map[string]string {
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.name] = d.unit
	}
	return units
}

// Host time is the wall clock of this process; simulated time ("sim_"
// units) is virtual time from the internal/perf cost model on the
// Xavier platform. Every metric's unit says which.

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. Times are calibrated seconds (calib.go).
// Even so, ten runs with ten seeds spread by 4-13 % between quartiles on
// this shared 2-core host (half noise, half the seed's scene), so a time
// bound tighter than a quarter would call that a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_work_per_s", "1/s", "higher", 0.25},
	{"host_alloc_b_per_work", "B", "lower", 0.2},
}

// perLayer are the per-layer metrics, reported with tracing on. The
// prefix is the module under internal/ that owns the number ("pump",
// "http", "paper" carry a workload's simulated results; "share" is a
// layer's part of a workload's host time; "bench" is the benchmark
// itself).
var perLayer = []metricDef{
	// Simulated results of each workload, and the HTTP path's own times.
	{"pump.sim_frames_per_s", "1/sim_s", "higher", 0},
	{"pump.sim_frame_mean_ms", "sim_ms", "lower", 0},
	{"pump.sim_frame_p99_ms", "sim_ms", "lower", 0},
	{"pump.shed_ratio", "ratio", "lower", 0},
	{"http.ingest_p50_ms", "ms", "lower", 0},
	{"http.session_setup_ms", "ms", "lower", 0},
	{"http.shed_ratio", "ratio", "lower", 0},
	{"paper.sim_frame_mean_ms", "sim_ms", "lower", 0},
	{"paper.sim_speedup_vs_gpu", "x", "higher", 0},
	{"paper.sim_nmp_vs_rr", "x", "higher", 0},

	{"scene.gen_s_per_stream_s", "s/s", "lower", 0},
	{"scene.events_generated", "count", "higher", 0},

	{"events.decode_ns_per_event", "ns/event", "lower", 0},
	{"events.encode_ns_per_event", "ns/event", "lower", 0},
	{"events.bytes_per_event", "B/event", "lower", 0},

	{"e2sf.fused_count_ns_per_event", "ns/event", "lower", 0},
	{"e2sf.fused_window_ns_per_event", "ns/event", "lower", 0},
	{"e2sf.unfused_ns_per_event", "ns/event", "lower", 0},
	{"e2sf.events_in", "count", "higher", 0},
	{"e2sf.frames_out", "count", "higher", 0},
	{"e2sf.mean_density", "ratio", "lower", 0},

	{"dsfa.push_ns_per_frame", "ns/frame", "lower", 0},
	{"dsfa.merge_ratio", "ratio", "higher", 0},
	{"dsfa.batches_out", "count", "lower", 0},
	{"dsfa.dropped_frames", "count", "lower", 0},

	{"pipeline.stepper_ns_per_frame", "ns/frame", "lower", 0},
	{"pipeline.cost_ns_per_invocation", "ns/op", "lower", 0},
	{"pipeline.run_ms_level0", "ms", "lower", 0},
	{"pipeline.run_ms_level1", "ms", "lower", 0},
	{"pipeline.run_ms_level2", "ms", "lower", 0},
	{"pipeline.run_ms_level3", "ms", "lower", 0},
	{"pipeline.multitask_ms", "ms", "lower", 0},
	{"pipeline.multitask_max_mean_latency_us", "sim_us", "lower", 0},

	{"perf.profiledb_build_ms", "ms", "lower", 0},
	{"perf.profiledb_rows", "count", "lower", 0},
	{"perf.layer_time_ns_per_call", "ns/op", "lower", 0},

	{"nmp.search_ms", "ms", "lower", 0},
	{"nmp.searchfrom_ms", "ms", "lower", 0},
	{"nmp.placement_search_ms", "ms", "lower", 0},
	{"nmp.evaluations", "count", "lower", 0},
	{"nmp.best_latency_us", "sim_us", "lower", 0},
	{"nmp.feasible", "count", "higher", 0},

	{"taskgraph.build_run_us", "us", "lower", 0},
	{"taskgraph.comm_nodes", "count", "lower", 0},

	{"hw.submit_ns_per_op", "ns/op", "lower", 0},
	{"hw.makespan_us", "sim_us", "lower", 0},

	{"sched.submit_pump_ns_per_req", "ns/op", "lower", 0},
	{"sched.occupancy", "ratio", "higher", 0},
	{"sched.dispatches", "count", "lower", 0},
	{"sched.submitted", "count", "lower", 0},

	{"serve.ingest_us_per_chunk", "us", "lower", 0},
	{"serve.pump_us_per_round", "us", "lower", 0},
	{"serve.create_ms", "ms", "lower", 0},
	{"serve.close_ms", "ms", "lower", 0},
	{"serve.http_ingest_p99_ms", "ms", "lower", 0},
	{"serve.http_overhead_us", "us", "lower", 0},
	{"serve.metrics_scrape_ms", "ms", "lower", 0},
	{"serve.queue_dropped", "count", "lower", 0},
	{"serve.sim_frame_p99_ms", "sim_ms", "lower", 0},

	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"obs.spans_recorded", "count", "lower", 0},

	{"mem.pump_allocs_per_frame", "1/frame", "lower", 0},
	{"mem.pump_bytes_per_frame", "B/frame", "lower", 0},
	{"mem.infer_allocs_per_frame", "1/frame", "lower", 0},
	{"mem.infer_bytes_per_frame", "B/frame", "lower", 0},
	{"mem.pool_miss_ratio", "ratio", "lower", 0},
	{"mem.heap_inuse_peak_mb", "MB", "lower", 0},
	{"mem.gc_pause_ms", "ms", "lower", 0},

	{"sparse.submanifold_ns_per_site", "ns/site", "lower", 0},
	{"sparse.sparseconv_ns_per_mac", "ns/mac", "lower", 0},
	{"sparse.conv2d_ns_per_mac", "ns/mac", "lower", 0},
	{"sparse.active_sites_mean", "count", "lower", 0},
	{"sparse.macs_per_frame", "count", "lower", 0},
	{"sparse.rulebook_hit_ratio", "ratio", "higher", 0},
	{"sparse.rulebook_observe_ns", "ns/frame", "lower", 0},

	{"nn.forward_ms_spikeflownet", "ms", "lower", 0},
	{"nn.forward_ms_adaptive-spikenet", "ms", "lower", 0},
	{"nn.forward_ms_dotie", "ms", "lower", 0},
	{"nn.forward_dense_ms_dotie", "ms", "lower", 0},

	{"par.pool_width", "count", "higher", 0},
	{"par.empty_dispatch_ns", "ns/op", "lower", 0},
	{"par.tiled_forward_ratio", "ratio", "lower", 0},

	{"quant.acc_budget_used_max", "ratio", "lower", 0},

	// A layer's share of a workload's host time, by replaying the
	// workload's inputs through the layer's public functions.
	{"share.pump.e2sf_pct", "%", "lower", 0},
	{"share.pump.dsfa_pct", "%", "lower", 0},
	{"share.pump.nmp_pct", "%", "lower", 0},
	{"share.pump.events_pct", "%", "lower", 0},
	{"share.pump.nn_pct", "%", "lower", 0},
	{"share.http.e2sf_pct", "%", "lower", 0},
	{"share.http.nmp_pct", "%", "lower", 0},
	{"share.http.events_pct", "%", "lower", 0},
	{"share.http.nn_pct", "%", "lower", 0},
	{"share.paper.e2sf_pct", "%", "lower", 0},
	{"share.paper.dsfa_pct", "%", "lower", 0},
	{"share.paper.nmp_pct", "%", "lower", 0},
	{"share.paper.events_pct", "%", "lower", 0},
	{"share.paper.nn_pct", "%", "lower", 0},
	{"share.infer.e2sf_pct", "%", "lower", 0},
	{"share.infer.dsfa_pct", "%", "lower", 0},
	{"share.infer.nmp_pct", "%", "lower", 0},
	{"share.infer.events_pct", "%", "lower", 0},
	{"share.infer.nn_pct", "%", "lower", 0},

	{"bench.span_overhead_pct", "%", "lower", 0},
	{"bench.pump_span_coverage_pct", "%", "higher", 0},
	{"bench.http_span_coverage_pct", "%", "higher", 0},
	{"bench.paper_span_coverage_pct", "%", "higher", 0},
	{"bench.infer_span_coverage_pct", "%", "higher", 0},
	{"bench.rounds_run", "count", "higher", 0},
}
