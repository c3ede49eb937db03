package main

// metricDef declares one metric the benchmark prints. The table below
// is the code's copy of BENCHMARK.json; bench_test.go keeps the two
// equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees. Every workload
// emits every one of them (see README.md for what each means on
// restart-query).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_frag_per_s", "frag/s", "higher", 0.25},
	{"window_lag_ms_p50", "ms", "lower", 0.25},
	{"client_flush_us_p50", "us", "lower", 0.25},
	{"wire_bytes_per_frag", "B", "lower", 0.01},
	{"live_heap_bytes_per_frag", "B", "lower", 0.10},
}

// perLayer are single-layer metrics, named <module>.<metric>. They
// carry no bound. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{Name: "trace.encode_ns_per_frag", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_ns_per_frag", Unit: "ns", Better: "lower"},
	{Name: "trace.frame_bytes_p50", Unit: "B", Better: "lower"},

	{Name: "collector.client.consume_us_p99", Unit: "us", Better: "lower"},
	{Name: "collector.client.spill_peak", Unit: "count", Better: "lower"},
	{Name: "collector.client.drain_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.client.batches_sent", Unit: "count", Better: "higher"},
	{Name: "collector.client.reconnects", Unit: "count", Better: "lower"},

	{Name: "collector.wire.frames", Unit: "count", Better: "higher"},
	{Name: "collector.wire.bytes", Unit: "B", Better: "lower"},
	{Name: "collector.wire.frames_rejected", Unit: "count", Better: "lower"},
	{Name: "collector.wire.dups", Unit: "count", Better: "lower"},
	{Name: "collector.wire.seq_gaps", Unit: "count", Better: "lower"},
	{Name: "collector.lost_batch_share", Unit: "ratio", Better: "lower"},

	{Name: "collector.seq.observe_ns_per_batch", Unit: "ns", Better: "lower"},

	{Name: "wal.append_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wal.append_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wal.replay_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_frag", Unit: "B", Better: "lower"},
	{Name: "wal.segments", Unit: "count", Better: "lower"},

	{Name: "collector.pool.consume_ns_per_frag", Unit: "ns", Better: "lower"},
	{Name: "collector.pool.intake_stalls", Unit: "count", Better: "lower"},
	{Name: "collector.pool.sync_drains", Unit: "count", Better: "lower"},
	{Name: "collector.pool.staged_peak", Unit: "count", Better: "lower"},
	{Name: "collector.pool.range_query_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.pool.range_query_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "collector.journal.replay_frag_per_s", Unit: "frag/s", Better: "higher"},

	{Name: "stg.addbatch_ns_per_frag", Unit: "ns", Better: "lower"},
	{Name: "stg.vertices", Unit: "count", Better: "lower"},
	{Name: "stg.edges", Unit: "count", Better: "lower"},

	{Name: "cluster.runinc_ns_per_appended_frag", Unit: "ns", Better: "lower"},
	{Name: "cluster.inc_hits", Unit: "count", Better: "higher"},
	{Name: "cluster.inc_fallbacks", Unit: "count", Better: "lower"},
	{Name: "cluster.inc_fallback_multid", Unit: "count", Better: "lower"},
	{Name: "cluster.inc_fallback_dirty", Unit: "count", Better: "lower"},
	{Name: "cluster.inc_fallback_stale", Unit: "count", Better: "lower"},
	{Name: "cluster.cache_hits", Unit: "count", Better: "higher"},
	{Name: "cluster.cache_misses", Unit: "count", Better: "lower"},

	{Name: "detect.runwindow_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "detect.runwindow_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "detect.stage_prep_share", Unit: "ratio", Better: "lower"},
	{Name: "detect.stage_cluster_share", Unit: "ratio", Better: "lower"},
	{Name: "detect.stage_normalize_share", Unit: "ratio", Better: "lower"},
	{Name: "detect.stage_merge_share", Unit: "ratio", Better: "lower"},
	{Name: "detect.stage_map_share", Unit: "ratio", Better: "lower"},
	{Name: "detect.prep_incremental", Unit: "count", Better: "higher"},
	{Name: "detect.prep_rebuilds", Unit: "count", Better: "lower"},
	{Name: "detect.store_compactions", Unit: "count", Better: "lower"},
	{Name: "detect.cells_carried", Unit: "count", Better: "higher"},
	{Name: "detect.cells_regrown", Unit: "count", Better: "lower"},

	{Name: "detect.spatial.merge_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "detect.spatial.strips_merged", Unit: "count", Better: "lower"},
	{Name: "detect.spatial.regions_stitched", Unit: "count", Better: "higher"},

	{Name: "collector.monitor.tick_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.monitor.tick_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "collector.monitor.tick_ms_max", Unit: "ms", Better: "lower"},
	{Name: "collector.monitor.tick_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "collector.monitor.sink_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "collector.monitor.sink_call_us_p99", Unit: "us", Better: "lower"},
	{Name: "collector.monitor.sink_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "collector.monitor.window_lag_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "collector.monitor.window_lag_ms_max", Unit: "ms", Better: "lower"},
	{Name: "collector.monitor.windows", Unit: "count", Better: "higher"},
	{Name: "collector.monitor.events", Unit: "count", Better: "higher"},

	{Name: "diagnose.event_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "diagnose.events_diagnosed", Unit: "count", Better: "higher"},

	{Name: "heatmap.render_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_pause_ms_max", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.num_gc", Unit: "count", Better: "lower"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"},

	{Name: "gen.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "gen.late_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gen.late_ms_p99", Unit: "ms", Better: "lower"},

	{Name: "ladder.total_ns_per_frag", Unit: "ns", Better: "lower"},
	{Name: "ladder.single_thread_frag_per_s", Unit: "frag/s", Better: "higher"},
	{Name: "ladder.coverage", Unit: "ratio", Better: "lower"},
	{Name: "ladder.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
}

// exactMetrics must read identically on every run of one commit with
// one seed.
var exactMetrics = []string{
	"wire_bytes_per_frag",
	"collector.wire.frames",
	"collector.monitor.windows",
	"collector.monitor.events",
}
