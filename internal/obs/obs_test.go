package obs

import (
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter: %d", c.Load())
	}
	var g Gauge
	g.Set(4)
	if g.Load() != 4 {
		t.Fatalf("gauge: %d", g.Load())
	}
	g.SetMax(2)
	if g.Load() != 4 {
		t.Fatal("SetMax lowered the gauge")
	}
	g.SetMax(9)
	if g.Load() != 9 {
		t.Fatal("SetMax did not raise the gauge")
	}
}

// Observations landing exactly on a bucket's upper bound must count in
// that bucket (bounds are inclusive upper bounds), and anything past the
// last bound lands in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	for _, v := range []int64{10, 20, 40} { // exact boundaries
		h.Observe(v)
	}
	h.Observe(1)  // below first bound → bucket 0
	h.Observe(11) // (10, 20] → bucket 1
	h.Observe(41) // overflow
	h.Observe(1 << 60)
	s := h.Snapshot()
	want := []uint64{2, 2, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d: %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Total != 7 {
		t.Fatalf("total: %d", s.Total)
	}
	if s.Sum != 10+20+40+1+11+41+(1<<60) {
		t.Fatalf("sum: %d", s.Sum)
	}
}

// The quantile interpolation is pinned exactly: bucket i spans
// (bounds[i-1], bounds[i]] (bucket 0 from 0), and the rank q·Total is
// interpolated linearly inside its bucket.
func TestHistogramQuantileExact(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 30})
	// 4 observations in (0,10], 4 in (10,20], 2 in (20,30].
	for i := 0; i < 4; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	h.Observe(25)
	h.Observe(25)
	s := h.Snapshot()
	cases := []struct{ q, want float64 }{
		{0.0, 0},    // rank 0 → bottom of first bucket
		{0.2, 5},    // rank 2 of 4 in bucket (0,10] → 10·(2/4)
		{0.4, 10},   // rank 4 = full first bucket → exactly its bound
		{0.5, 12.5}, // rank 5 → 1 of 4 into (10,20]
		{0.8, 20},   // rank 8 exhausts second bucket → exactly 20
		{0.9, 25},   // rank 9 → 1 of 2 into (20,30]
		{1.0, 30},   // rank 10 → top bound
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Fatalf("q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
}

// Ranks landing in the overflow bucket report the last finite bound (a
// floor, not an invented estimate).
func TestHistogramQuantileOverflow(t *testing.T) {
	h := NewHistogram([]int64{10, 20})
	h.Observe(5)
	h.Observe(1000)
	h.Observe(2000)
	s := h.Snapshot()
	if got := s.Quantile(0.99); got != 20 {
		t.Fatalf("overflow quantile: %v, want 20", got)
	}
	if got := s.Quantile(0.1); got >= 10.0+1e-9 {
		t.Fatalf("low quantile leaked into overflow: %v", got)
	}
	// All-overflow histogram still answers with the last bound.
	h2 := NewHistogram([]int64{10})
	h2.Observe(99)
	s2 := h2.Snapshot()
	if got := s2.Quantile(0.5); got != 10 {
		t.Fatalf("all-overflow quantile: %v", got)
	}
	// Empty histogram.
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile must be 0")
	}
}

// Concurrent Observe must be race-clean (run under -race in CI) and
// lose no observations.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBounds())
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Total; got != workers*per {
		t.Fatalf("lost observations: %d, want %d", got, workers*per)
	}
}

// Hot-path instrumentation must not allocate: these pins are what keeps
// the <2% bench budget honest.
func TestHotPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "t", "")
	g := reg.Gauge("g", "t", "")
	h := reg.Histogram("h_ns", "t", "", nil)
	sp := NewSpans(reg, "stage", "t", "prep", "merge")
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Fatalf("Counter.Add allocates: %v", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1); g.SetMax(2) }); n != 0 {
		t.Fatalf("Gauge allocates: %v", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates: %v", n)
	}
	if n := testing.AllocsPerRun(1000, func() { sp.RecordNS(1, 999) }); n != 0 {
		t.Fatalf("Spans.RecordNS allocates: %v", n)
	}
}

// TestSpansRecordIntoStageHistograms pins that a span is one
// observation of its stage's histogram, registered as prefix_stage_ns,
// and that an out-of-range stage or a nil tracer records nothing.
func TestSpansRecordIntoStageHistograms(t *testing.T) {
	reg := NewRegistry()
	sp := NewSpans(reg, "vapro_detect_stage", "detect", "prep", "cluster", "merge")
	sp.RecordNS(0, 100)
	sp.RecordNS(2, 300)
	sp.RecordNS(2, 500)
	sp.RecordNS(3, 700)
	(*Spans)(nil).RecordNS(0, 900)
	snap := reg.Snapshot()
	for stage, want := range map[string]uint64{"prep": 1, "cluster": 0, "merge": 2} {
		m := snap.Get("vapro_detect_stage_" + stage + "_ns")
		if m == nil || m.Hist == nil {
			t.Fatalf("stage %s: span histogram not registered", stage)
		}
		if m.Hist.Total != want {
			t.Fatalf("stage %s recorded %d spans, want %d", stage, m.Hist.Total, want)
		}
	}
	if got := snap.Get("vapro_detect_stage_merge_ns").Hist.Sum; got != 800 {
		t.Fatalf("merge span sum %d, want 800", got)
	}
}

func TestRegistrySnapshotAndReplace(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total", "layerA", "help")
	c.Add(5)
	reg.Func("f", "layerB", "", func() float64 { return 2.5 })
	snap := reg.Snapshot()
	if m := snap.Get("x_total"); m == nil || m.Value != 5 || m.Kind != "counter" || m.Layer != "layerA" {
		t.Fatalf("counter snapshot: %+v", m)
	}
	if m := snap.Get("f"); m == nil || m.Value != 2.5 {
		t.Fatalf("func snapshot: %+v", m)
	}
	if snap.Get("vapro_uptime_seconds") == nil {
		t.Fatal("builtin uptime metric missing")
	}
	if snap.UptimeSeconds < 0 {
		t.Fatal("uptime negative")
	}
	// Re-registering the same name replaces, not duplicates.
	c2 := reg.Counter("x_total", "layerA", "help")
	c2.Add(1)
	snap = reg.Snapshot()
	seen := 0
	for _, m := range snap.Metrics {
		if m.Name == "x_total" {
			seen++
			if m.Value != 1 {
				t.Fatalf("replacement not in effect: %v", m.Value)
			}
		}
	}
	if seen != 1 {
		t.Fatalf("duplicate registration: %d entries", seen)
	}
}

// TestSpansConcurrentReadWhileRecord races registry snapshots against
// RecordNS: a reader never sees a stage's span count go backwards, and
// once the writers stop every span is counted.
func TestSpansConcurrentReadWhileRecord(t *testing.T) {
	reg := NewRegistry()
	stages := []string{"a", "b", "c"}
	sp := NewSpans(reg, "c", "x", stages...)
	const writers, per = 3, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp.RecordNS(i%3, int64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := make([]uint64, len(stages))
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		snap := reg.Snapshot()
		for i, st := range stages {
			n := snap.Get("c_" + st + "_ns").Hist.Total
			if n < last[i] {
				t.Fatalf("stage %s span count went back: %d after %d", st, n, last[i])
			}
			last[i] = n
		}
	}
	if total := last[0] + last[1] + last[2]; total != writers*per {
		t.Fatalf("counted %d spans, recorded %d", total, writers*per)
	}
}
