package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"vapro/internal/collector"
	"vapro/internal/diagnose"
	"vapro/internal/sim"
)

// result is everything one workload run produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	InputSHA  string             `json:"input_sha256"`
	Constants map[string]any     `json:"constants"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Dists     map[string]dist    `json:"distributions"`
	Warnings  []string           `json:"warnings,omitempty"`
	Error     string             `json:"error,omitempty"`
}

func newResult(sp *spec, cfg config, s *stream, sz sizing) *result {
	return &result{
		Workload: sp.name, Seed: cfg.seed, Traced: cfg.trace, InputSHA: s.sha,
		Constants: map[string]any{
			"ranks": sp.ranks, "shards": sp.shards, "batch_frags": sp.batch,
			"period_ms": int64(sp.period / sim.Millisecond), "overlap_ms": int64(sp.overlap / sim.Millisecond),
			"bucket_ms": int64(sp.bucket / sim.Millisecond), "journal": sp.journal,
			"paced_frag_per_s": sp.pacedRate, "sat_queue_depth": satQueueDepth,
			"sat_frags": sz.satRounds * sp.roundFrags(), "paced_frags": sz.pacedRounds * sp.roundFrags(),
			"seconds": cfg.seconds, "scale": cfg.scale,
		},
		Metrics: map[string]float64{}, Dists: map[string]dist{},
	}
}

// set records a metric; a ratio over nothing reads 0, not NaN, so the
// output stays valid JSON even for a run that went wrong.
func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = v
}

func (r *result) dist(name string, v []float64) dist {
	d := summarize(v)
	r.Dists[name] = d
	return d
}

func (r *result) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// reportPaced fills every metric the open-loop phase yields.
func reportPaced(r *result, s *stream, st *stack, ph *phase, firstWindow int, events []collector.Event) {
	lags := windowLags(s, ph.from, ph.to, ph.drive.dueNS, firstWindow, ph.tickEnd)
	lag := r.dist("window_lag_ms", scaleAll(lags, 1e6))
	r.set("window_lag_ms_p50", lag.P50)
	r.set("collector.monitor.window_lag_ms_p90", lag.q(90))
	r.set("collector.monitor.window_lag_ms_max", lag.Max)

	flush := r.dist("client_flush_us", scaleAll(ph.drive.consumeNS, 1e3))
	r.set("client_flush_us_p50", flush.P50)
	r.set("collector.client.consume_us_p99", flush.q(99))

	late := r.dist("gen.late_ms", scaleAll(ph.drive.lateNS, 1e6))
	r.set("gen.late_ms_p50", late.P50)
	r.set("gen.late_ms_p99", late.q(99))
	if ph.drive.wallNS > 0 {
		busy := float64(ph.drive.busyNS) / float64(ph.drive.wallNS)
		r.set("gen.busy_share", busy)
		if busy >= 0.05 {
			r.warn("paced: the generators spent %.1f%% of their time on their own bookkeeping; the load they apply is not the schedule's", 100*busy)
		}
	}
	if late.q(99) >= lag.P50 && lag.N > 0 {
		r.warn("paced: generator lateness p99 %.3g ms is not below window lag p50 %.3g ms", late.q(99), lag.P50)
	}

	var tickNS, callNS []int64
	var tickTotal int64
	for _, c := range ph.calls {
		if c.Windows > 0 {
			tickNS = append(tickNS, c.End-c.Start)
			tickTotal += c.End - c.Start
		} else {
			callNS = append(callNS, c.End-c.Start)
		}
	}
	tick := r.dist("collector.monitor.tick_ms", scaleAll(tickNS, 1e6))
	r.set("collector.monitor.tick_ms_p50", tick.P50)
	r.set("collector.monitor.tick_ms_p90", tick.q(90))
	r.set("collector.monitor.tick_ms_max", tick.Max)
	call := r.dist("collector.monitor.sink_call_us", scaleAll(callNS, 1e3))
	r.set("collector.monitor.sink_call_us_p50", call.P50)
	r.set("collector.monitor.sink_call_us_p99", call.q(99))
	if ph.wallNS > 0 {
		r.set("collector.monitor.tick_busy_share", float64(tickTotal)/float64(ph.wallNS))
		r.set("collector.monitor.sink_busy_share", float64(busyUnion(ph.calls))/float64(ph.wallNS))
	}
	r.set("collector.monitor.windows", float64(len(ph.tickEnd)))
	r.set("collector.monitor.events", float64(len(events)))

	b := st.books()
	r.set("collector.client.spill_peak", float64(b.spillPeak))
	r.set("collector.client.drain_wait_ms", float64(ph.drainWait)/1e6)
	r.set("collector.client.batches_sent", float64(b.sent))
	r.set("collector.client.reconnects", float64(b.reconnects))
	r.set("collector.wire.frames", float64(b.delivered))
	r.set("collector.wire.bytes", float64(b.wireBytes))
	r.set("collector.wire.frames_rejected", float64(b.rejected))
	r.set("collector.wire.dups", float64(b.dups))
	r.set("collector.wire.seq_gaps", float64(b.gaps))
	r.set("wire_bytes_per_frag", float64(b.wireBytes)/float64(b.fragments))
	// A queue still deep when the generators finish means the rate is
	// not sustainable and the lag figure is not a steady-state one.
	if float64(b.spillPeak) > 0.25*float64(ph.to-ph.from)/float64(len(st.clients)) {
		r.warn("paced: client spill peak %d frames is a large share of the phase; the rate is not sustained", b.spillPeak)
	}

	snap := st.snapshot()
	for metric, series := range map[string]string{
		"collector.pool.intake_stalls":    "vapro_intake_stalls_total",
		"collector.pool.sync_drains":      "vapro_intake_sync_drains_total",
		"collector.pool.staged_peak":      "vapro_intake_staged_peak",
		"cluster.inc_hits":                "vapro_cluster_cache_inc_hits",
		"cluster.inc_fallbacks":           "vapro_cluster_cache_inc_fallbacks",
		"cluster.inc_fallback_multid":     "vapro_cluster_cache_inc_fallback_multid",
		"cluster.inc_fallback_dirty":      "vapro_cluster_cache_inc_fallback_dirty",
		"cluster.inc_fallback_stale":      "vapro_cluster_cache_inc_fallback_stale",
		"cluster.cache_hits":              "vapro_cluster_cache_hits",
		"cluster.cache_misses":            "vapro_cluster_cache_misses",
		"detect.prep_incremental":         "vapro_detect_prep_incremental_total",
		"detect.prep_rebuilds":            "vapro_detect_prep_rebuilds_total",
		"detect.store_compactions":        "vapro_detect_store_compactions_total",
		"detect.cells_carried":            "vapro_detect_region_cells_carried_total",
		"detect.cells_regrown":            "vapro_detect_region_cells_regrown_total",
		"detect.spatial.strips_merged":    "vapro_shard_strips_merged_total",
		"detect.spatial.regions_stitched": "vapro_shard_regions_stitched_total",
	} {
		if m := snap.Get(series); m != nil {
			r.set(metric, m.Value)
		}
	}
}

// diagnoseEvents runs the progressive diagnosis on every online event,
// as an operator following up on each would.
func diagnoseEvents(r *result, mon *collector.Monitor, events []collector.Event) {
	var ms []float64
	for i := range events {
		t0 := time.Now()
		_ = mon.DiagnoseEvent(&events[i], diagnose.DefaultOptions())
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	d := r.dist("diagnose.event_ms", ms)
	r.set("diagnose.event_ms_p50", d.P50)
	r.set("diagnose.events_diagnosed", float64(len(events)))
}

func reportQueries(r *result, queryMS, renderMS []float64) {
	q := r.dist("range_query_ms", queryMS)
	r.set("collector.pool.range_query_ms_p50", q.P50)
	r.set("collector.pool.range_query_ms_p90", q.q(90))
	r.set("heatmap.render_ms_p50", r.dist("heatmap.render_ms", renderMS).P50)
}

func reportLadder(r *result, l *ladderResult, satBusyNSPerFrag float64) {
	r.set("trace.encode_ns_per_frag", l.perFrag("trace.encode"))
	r.set("trace.decode_ns_per_frag", l.perFrag("trace.decode"))
	r.set("trace.frame_bytes_p50", median(l.frameBytes))
	r.set("collector.seq.observe_ns_per_batch", float64(l.self["seq.observe"])/float64(l.batches))
	if l.walBytes > 0 {
		r.set("wal.append_ns_per_frame", float64(l.self["wal.append"])/float64(l.batches))
		r.set("wal.append_mb_per_s", float64(l.walBytes)/1e6/(float64(l.self["wal.append"])/1e9))
		r.set("wal.replay_ns_per_frame", float64(l.walReplayNS)/float64(l.batches))
		r.set("wal.bytes_per_frag", float64(l.walBytes)/float64(l.frags))
		r.set("wal.segments", float64(l.walSegments))
	}
	r.set("collector.pool.consume_ns_per_frag", l.perFrag("pool.consume"))
	r.set("stg.addbatch_ns_per_frag", l.perFrag("stg.addbatch"))
	r.set("stg.vertices", float64(l.vertices))
	r.set("stg.edges", float64(l.edges))
	r.set("cluster.runinc_ns_per_appended_frag", float64(l.clusterNS)/float64(l.frags))
	w := r.dist("detect.runwindow_ms", l.windowMS)
	r.set("detect.runwindow_ms_p50", w.P50)
	r.set("detect.runwindow_ms_p90", w.q(90))
	for stage, share := range l.stageShare {
		r.set("detect.stage_"+stage+"_share", share)
	}
	if len(l.mergeMS) > 0 {
		r.set("detect.spatial.merge_ms_p50", r.dist("detect.spatial.merge_ms", l.mergeMS).P50)
	}
	total := l.sum(ladderLayers)
	r.set("ladder.total_ns_per_frag", total)
	if total > 0 {
		r.set("ladder.single_thread_frag_per_s", 1e9/total)
	}
	if sink := l.sum(sinkLayers); sink > 0 {
		cov := satBusyNSPerFrag / sink
		r.set("ladder.coverage", cov)
		if cov < 0.8 || cov > 1.25 {
			r.warn("ladder coverage %.2f is outside 0.8–1.25: the live sink path costs %.0f ns/fragment, its layers alone %.0f", cov, satBusyNSPerFrag, sink)
		}
	}
}

// traceFile is what -trace 1 writes per workload.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Phases   map[string][]span `json:"phases"`
}

func writeTrace(cfg config, name string, tf *traceFile) error {
	return writeJSON(filepath.Join(cfg.outDir, "trace-"+name+".json"), tf)
}
