package main

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"vapro/internal/sim"
	"vapro/internal/trace"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		have bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.have {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.have)
		}
	}
	// The chosen percentile really leaves ten samples beyond it.
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	d := summarize(v)
	if d.TailP != 99 || d.Tail != 990 || d.P50 != 500.5 || d.Max != 1000 || d.N != 1000 {
		t.Errorf("summarize(1..1000) = %+v", d)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1,2,4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestPaceLatenessAccounting(t *testing.T) {
	if sleep, late := pace(1000, 400); sleep != 600 || late != 0 {
		t.Errorf("early generator: sleep %d late %d", sleep, late)
	}
	if sleep, late := pace(1000, 1000); sleep != 0 || late != 0 {
		t.Errorf("on-time generator: sleep %d late %d", sleep, late)
	}
	if sleep, late := pace(1000, 1750); sleep != 0 || late != 750 {
		t.Errorf("late generator: sleep %d late %d", sleep, late)
	}
}

// tinyStream builds a 2-rank stream by hand: every fragment of rank r
// runs elapsed[r] ns, two fragments per batch.
func tinyStream(rounds int, elapsed [2]int64) *stream {
	sp := &spec{ranks: 2, shards: 1, batch: 2, period: 4 * sim.Millisecond, overlap: 2 * sim.Millisecond}
	s := &stream{sp: sp, rounds: rounds}
	clocks := [2]int64{}
	for round := 0; round < rounds; round++ {
		for rank := 0; rank < 2; rank++ {
			for i := 0; i < 2; i++ {
				s.frags = append(s.frags, trace.Fragment{Rank: rank, Kind: trace.Comp, Start: clocks[rank], Elapsed: elapsed[rank]})
				clocks[rank] += elapsed[rank]
			}
		}
	}
	return s
}

func TestClosingBatches(t *testing.T) {
	ms := int64(sim.Millisecond)
	// Both ranks advance 2 ms per batch: the second rank's flush of each
	// round is the one that lifts the watermark. Windows end at 4, 6, 8 ms.
	s := tinyStream(4, [2]int64{ms, ms})
	if got, want := closingBatches(s), []int{3, 5, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("even ranks: closing = %v, want %v", got, want)
	}
	// Rank 1 runs twice as fast through virtual time, so rank 0 holds the
	// watermark back and its flushes are the ones that close windows.
	s = tinyStream(4, [2]int64{ms, 2 * ms})
	if got, want := closingBatches(s), []int{2, 4, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("rank 1 ahead: closing = %v, want %v", got, want)
	}
	s.closing = closingBatches(s)
	if n := s.windowsClosedBy(5); n != 2 {
		t.Errorf("windowsClosedBy(5) = %d, want 2", n)
	}
	// Lag is measured from the closing batch's due time to the tick's return.
	due := []int64{0, 10, 20, 30, 40, 50, 60, 70}
	lags := windowLags(s, 0, 8, due, 0, []int64{25, 47, 95})
	if want := []int64{5, 7, 35}; !reflect.DeepEqual(lags, want) {
		t.Errorf("windowLags = %v, want %v", lags, want)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "batch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "decode", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "consume", Start: 50, End: 90},
		{ID: 4, Parent: 3, Name: "tick", Start: 60, End: 85},
		{ID: 5, Name: "batch", Start: 100, End: 110},
	}
	got := selfTimes(spans)
	want := map[string]int64{"batch": 40 + 10, "decode": 20, "consume": 15, "tick": 25}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Children that overlap each other or spill past the parent only
	// count for the part of the parent's interval they cover.
	got = selfTimes([]span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 20, End: 60},
		{ID: 3, Parent: 1, Name: "c", Start: 40, End: 120},
	})
	if got["p"] != 20 {
		t.Errorf("overlapping children: parent self = %d, want 20", got["p"])
	}
}

func TestBusyUnion(t *testing.T) {
	calls := []sinkCall{{Start: 50, End: 60}, {Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 20, End: 25}}
	if got := busyUnion(calls); got != 35 {
		t.Errorf("busyUnion = %d, want 35", got)
	}
	if got := busyUnion(nil); got != 0 {
		t.Errorf("busyUnion(nil) = %d", got)
	}
}

func TestRecorderCreditsEachWindowOnce(t *testing.T) {
	var windows uint64
	rec := newRecorder(func() uint64 { return windows }, 4)
	rec.expect(6)
	rec.record(rec.now(), 0, 2) // no tick
	windows = 2
	rec.record(rec.now(), 1, 2) // the ticking call: two windows
	rec.record(rec.now(), 0, 2) // the call that waited behind it sees nothing new
	if err := rec.wait(time.Second); err != nil {
		t.Fatal(err)
	}
	calls, ticks := rec.snapshot()
	if len(ticks) != 2 || calls[0].Windows != 0 || calls[1].Windows != 2 || calls[2].Windows != 0 {
		t.Errorf("calls %+v ticks %v", calls, ticks)
	}
	if ticks[0] != calls[1].End || ticks[1] != calls[1].End {
		t.Errorf("windows credited at %v, ticking call returned at %d", ticks, calls[1].End)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lag", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"inside the bound", lower, []float64{100, 101, 99}, []float64{105, 104, 106}, within},
		{"slower and resolved", lower, []float64{100, 101, 99}, []float64{120, 121, 119}, worse},
		{"faster and resolved", lower, []float64{100, 101, 99}, []float64{80, 81, 79}, better},
		{"rate fell", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, worse},
		{"rate rose", higher, []float64{100, 101, 99}, []float64{125, 126, 124}, better},
		{"A too noisy to tell", lower, []float64{80, 100, 130}, []float64{118, 120, 125}, unresolved},
		{"noisy but separated", lower, []float64{80, 100, 130}, []float64{140, 150, 160}, worse},
	} {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	sp := specByName("commio-journal")
	n := sp.minRounds()
	a, b, c := generate(sp, 1, n), generate(sp, 1, n), generate(sp, 2, n)
	if a.sha != b.sha {
		t.Error("same seed, different input_sha256")
	}
	if a.sha == c.sha {
		t.Error("different seeds, same input_sha256")
	}
	if a.injFrom >= a.injTo || a.injFrom%int64(sp.stride()) != 0 {
		t.Errorf("injected interval [%d,%d) is empty or not window-aligned", a.injFrom, a.injTo)
	}
}

func defByName(name string) (metricDef, bool) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run ./bench -describe`; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	if len(specs) != 4 || endToEnd[0].Name != "setup_s" {
		t.Errorf("%d workloads, first end-to-end metric %s", len(specs), endToEnd[0].Name)
	}
}

// TestSmoke runs every workload end to end at 1/50 of the work with the
// gate on. The traced pass emits every metric, so each workload runs it
// once; commio-journal (journal, events) also runs the untraced pass,
// and the exact counts must repeat between its two runs.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			cfg := config{seed: 1, seconds: nominalSeconds, scale: 0.02, outDir: t.TempDir(), smoke: true, trace: true, logf: t.Logf}
			r := runWorkload(sp, cfg)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 || r.Error != "" {
				t.Fatalf("correct=%v attempted=%d failed=%d error=%q", r.Correct, r.Attempted, r.Failed, r.Error)
			}
			if r.Metrics["collector.lost_batch_share"] != 0 {
				t.Errorf("lost_batch_share %v", r.Metrics["collector.lost_batch_share"])
			}
			for _, d := range endToEnd {
				if v, ok := r.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (emitted %v)", d.Name, v, ok)
				}
			}
			// Per-layer metrics that do not apply to a workload read 0, so
			// only require the ones that do.
			skip := map[string]bool{}
			if !sp.journal {
				for _, n := range []string{"wal.append_ns_per_frame", "wal.append_mb_per_s", "wal.replay_ns_per_frame", "wal.bytes_per_frag", "wal.segments"} {
					skip[n] = true
				}
			}
			if sp.shards == 1 {
				skip["detect.spatial.merge_ms_p50"] = true
			} else {
				skip["stg.addbatch_ns_per_frag"] = true
			}
			if !sp.restart {
				skip["collector.journal.replay_frag_per_s"] = true
				skip["collector.pool.range_query_ms_p50"] = true
				skip["heatmap.render_ms_p50"] = true
			}
			for _, n := range []string{
				"trace.encode_ns_per_frag", "trace.decode_ns_per_frag", "trace.frame_bytes_p50",
				"collector.seq.observe_ns_per_batch", "collector.pool.consume_ns_per_frag", "stg.addbatch_ns_per_frag",
				"cluster.runinc_ns_per_appended_frag", "detect.runwindow_ms_p50", "detect.stage_map_share",
				"detect.spatial.merge_ms_p50", "collector.monitor.tick_ms_p50", "collector.monitor.sink_busy_share",
				"collector.monitor.windows", "collector.wire.frames", "collector.wire.bytes", "collector.client.batches_sent",
				"collector.journal.replay_frag_per_s", "collector.pool.range_query_ms_p50", "wal.append_ns_per_frame", "wal.replay_ns_per_frame", "wal.bytes_per_frag",
				"heatmap.render_ms_p50", "runtime.heap_peak_mb", "gen.busy_share", "ladder.total_ns_per_frag",
				"ladder.single_thread_frag_per_s", "ladder.coverage",
			} {
				if _, declared := defByName(n); !declared {
					t.Errorf("test names undeclared metric %s", n)
				}
				if !skip[n] && r.Metrics[n] <= 0 {
					t.Errorf("per-layer metric %s = %v", n, r.Metrics[n])
				}
			}
			for name := range r.Metrics {
				if _, declared := defByName(name); !declared {
					t.Errorf("emitted metric %s is not declared", name)
				}
			}
			if sp.inject != nil && r.Metrics["collector.monitor.events"] == 0 {
				t.Error("injected slowdown raised no event")
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + sp.name + ".json"); err != nil {
				t.Error(err)
			}
			if sp.name != "commio-journal" {
				return
			}
			cfg.trace = false
			plain := runWorkload(sp, cfg)
			if !plain.Correct || plain.Error != "" {
				t.Fatalf("untraced: correct=%v error=%q", plain.Correct, plain.Error)
			}
			if _, err := contractLine(plain); err != nil {
				t.Error(err)
			}
			if plain.InputSHA != r.InputSHA {
				t.Error("input_sha256 differs between two runs of one seed")
			}
			for _, n := range exactMetrics {
				if plain.Metrics[n] != r.Metrics[n] || plain.Metrics[n] == 0 {
					t.Errorf("exact metric %s: %v then %v", n, r.Metrics[n], plain.Metrics[n])
				}
			}
		})
	}
}
