package main

// metricDef declares one metric of the benchmark. BENCHMARK.json at
// the repository root repeats these tables (a test keeps the two
// identical); the program prints exactly these names.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off, one value per run. Bound is the share of the parent's
// median by which a metric may get worse before a change counts as a
// regression.
//
// speedup is the paper's own yardstick (Table 1 skeleton tax, Table 2
// and Figure 4 speedups): the reference arm's time over the measured
// arm's, the two interleaved in one process. There is no absolute solve
// time among them because this host cannot hold one still: identical
// sets of runs of one commit differed by up to 33% in time per node
// while their speedups agreed within 2-8% (README.md). Seconds and
// nanoseconds per node are the per-layer run.solve_s and
// run.solve_ns_per_node.
var endToEnd = []metricDef{
	{Name: "speedup", Unit: "ratio", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, from the traced pass.
// They carry no bound: they say where an end-to-end change came from.
// A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	// internal/bitset, internal/graph, internal/apps/*: probes.
	{Name: "bitset.intersect_count_ns", Unit: "ns", Better: "lower"},
	{Name: "bitset.popnext_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "maxclique.space_build_ms", Unit: "ms", Better: "lower"},
	{Name: "maxclique.gen_ns_per_child", Unit: "ns", Better: "lower"},
	{Name: "maxclique.handcoded_s", Unit: "s", Better: "lower"},
	{Name: "maxclique.skeleton_tax", Unit: "ratio", Better: "lower"},
	{Name: "uts.gen_ns_per_child", Unit: "ns", Better: "lower"},
	{Name: "uts.codec_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "uts.codec_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "uts.codec_bytes", Unit: "bytes", Better: "lower"},
	{Name: "knapsack.gen_ns_per_child", Unit: "ns", Better: "lower"},
	{Name: "knapsack.codec_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "knapsack.codec_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "knapsack.codec_bytes", Unit: "bytes", Better: "lower"},

	// internal/core: counts and times of the measured arm's solves.
	{Name: "core.nodes", Unit: "count", Better: "lower"},
	{Name: "core.nodes_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.prunes", Unit: "count", Better: "higher"},
	{Name: "core.spawns", Unit: "count", Better: "lower"},
	{Name: "core.backtracks", Unit: "count", Better: "lower"},
	{Name: "core.seq_solve_s", Unit: "s", Better: "lower"},
	{Name: "core.cpu_s", Unit: "s", Better: "lower"},
	{Name: "core.cpu_ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "core.par_node_tax", Unit: "ratio", Better: "lower"},
	{Name: "core.tasks", Unit: "count", Better: "lower"},
	{Name: "core.utilisation", Unit: "ratio", Better: "higher"},
	{Name: "core.idle_s", Unit: "s", Better: "lower"},
	{Name: "core.task_p50_us", Unit: "us", Better: "higher"},
	{Name: "core.task_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.task_max_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "core.steals_ok", Unit: "count", Better: "lower"},
	{Name: "core.steals_fail", Unit: "count", Better: "lower"},
	{Name: "core.steal_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.local_steals", Unit: "count", Better: "lower"},
	{Name: "core.pool_peak_tasks", Unit: "count", Better: "lower"},
	{Name: "core.broadcasts", Unit: "count", Better: "lower"},
	{Name: "core.prefetch_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.batch_occupancy", Unit: "ratio", Better: "higher"},
	{Name: "core.ledger_peak", Unit: "count", Better: "lower"},
	{Name: "core.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "core.pool_pushpop_ns", Unit: "ns", Better: "lower"},
	{Name: "core.pool_sibling_steal_ns", Unit: "ns", Better: "lower"},
	{Name: "core.priopool_pushpop_ns", Unit: "ns", Better: "lower"},

	// internal/dist: wire counters of the measured arm, and probes.
	{Name: "dist.frames", Unit: "count", Better: "lower"},
	{Name: "dist.wire_bytes", Unit: "bytes", Better: "lower"},
	{Name: "dist.frames_per_steal", Unit: "ratio", Better: "lower"},
	{Name: "dist.bytes_per_task", Unit: "bytes", Better: "lower"},
	{Name: "dist.coord_frames", Unit: "count", Better: "lower"},
	{Name: "dist.deploy_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.deaths", Unit: "count", Better: "lower"},
	{Name: "dist.resumes", Unit: "count", Better: "lower"},
	{Name: "dist.loopback.steal_ns", Unit: "ns", Better: "lower"},
	{Name: "dist.tcp_star.steal_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "dist.tcp_star.steal_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "dist.tcp_mesh.steal_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "dist.tcp_mesh.steal_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "dist.tcp_star.tasks_per_s", Unit: "1/s", Better: "higher"},

	// Go runtime, over one traced solve of the measured arm.
	{Name: "go.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "go.allocs_per_knode", Unit: "count", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},

	// The run itself: how many solves the medians rest on, and how far
	// apart they were.
	{Name: "run.samples", Unit: "count", Better: "higher"},
	{Name: "run.solve_s", Unit: "s", Better: "lower"},
	{Name: "run.solve_ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "run.setup_raw_s", Unit: "s", Better: "lower"},
	{Name: "run.solve_min_s", Unit: "s", Better: "lower"},
	{Name: "run.solve_max_s", Unit: "s", Better: "lower"},
	{Name: "run.solve_iqr_frac", Unit: "ratio", Better: "lower"},
}
