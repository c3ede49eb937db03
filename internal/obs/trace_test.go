package obs

import (
	"sync"
	"testing"
)

// fakeNS is an injectable monotonic clock for deterministic hop stamps.
type fakeNS struct{ t int64 }

func (f *fakeNS) now() int64 { f.t += 1000; return f.t }

func TestTraceSampleCadence(t *testing.T) {
	tr := NewTrace(nil, "trace", 4, 8)
	want := map[uint64]bool{0: true, 4: true, 8: true}
	for seq := uint64(0); seq < 10; seq++ {
		if got := tr.Sample(seq); got != want[seq] {
			t.Fatalf("seq %d sampled=%v", seq, got)
		}
	}
	if tr.total.Load() != 10 || tr.sampled.Load() != 3 {
		t.Fatalf("total=%d sampled=%d", tr.total.Load(), tr.sampled.Load())
	}
	// A nil tracer is a no-op on every path.
	var nilTr *Trace
	if nilTr.Sample(0) {
		t.Fatal("nil tracer sampled")
	}
	nilTr.Record(TraceKey{}, 0, 0, HopFlush)
	nilTr.MarkDrained(TraceKey{}, 0, 0)
	nilTr.CompleteAnalyze()
	if s := nilTr.Snapshot(); len(s.Journeys) != 0 {
		t.Fatal("nil tracer produced journeys")
	}
}

func TestTraceJourneyLifecycle(t *testing.T) {
	clk := &fakeNS{}
	reg := NewRegistry()
	tr := NewTrace(reg, "trace", 64, 8)
	tr.SetNow(clk.now)

	key := TraceKey{ClientID: 7, Seq: 128}
	tr.Record(key, 3, 500, HopFlush)   // t=1000
	tr.Record(key, 3, 500, HopEnqueue) // t=2000
	tr.Record(key, 3, 0, HopWrite)     // t=3000
	tr.Record(key, 3, 500, HopDeliver) // t=4000
	tr.Record(key, 3, 500, HopStage)   // t=5000
	tr.MarkDrained(key, 3, 500)        // t=6000
	// Retransmit must not rewrite history.
	tr.Record(key, 3, 500, HopDeliver)
	tr.CompleteAnalyze() // t=8000 (retransmit consumed 7000)

	snap := tr.Snapshot()
	if len(snap.Journeys) != 1 {
		t.Fatalf("journeys: %d", len(snap.Journeys))
	}
	j := snap.Journeys[0]
	if j.Key != key || j.Rank != 3 || j.FlushNS != 500 {
		t.Fatalf("journey identity: %+v", j)
	}
	wantHops := [NumHops]int64{1000, 2000, 3000, 4000, 5000, 6000, 8000}
	if j.Hops != wantHops {
		t.Fatalf("hops %v, want %v", j.Hops, wantHops)
	}
	if j.SpanNS() != 8000-500 {
		t.Fatalf("span %d", j.SpanNS())
	}
	// The pending list is consumed: a second tick must not restamp.
	tr.CompleteAnalyze()
	if got := tr.Snapshot().Journeys[0].Hops[HopAnalyze]; got != 8000 {
		t.Fatalf("analyze hop restamped: %d", got)
	}
	// Registered Funcs reflect the ring.
	rs := reg.Snapshot()
	if m := rs.Get("vapro_trace_journeys"); m == nil || m.Value != 1 {
		t.Fatalf("journeys func: %+v", m)
	}
	if m := rs.Get("vapro_trace_sample_interval"); m == nil || m.Value != 64 {
		t.Fatalf("interval func: %+v", m)
	}
}

func TestTraceRingEviction(t *testing.T) {
	clk := &fakeNS{}
	tr := NewTrace(nil, "trace", 1, 4)
	tr.SetNow(clk.now)
	for seq := uint64(0); seq < 6; seq++ {
		tr.Record(TraceKey{ClientID: 1, Seq: seq}, 0, int64(seq+1), HopFlush)
	}
	snap := tr.Snapshot()
	if len(snap.Journeys) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap.Journeys))
	}
	seen := map[uint64]bool{}
	for _, j := range snap.Journeys {
		seen[j.Key.Seq] = true
	}
	for _, old := range []uint64{0, 1} {
		if seen[old] {
			t.Fatalf("evicted journey %d still present", old)
		}
	}
	for _, cur := range []uint64{2, 3, 4, 5} {
		if !seen[cur] {
			t.Fatalf("journey %d missing", cur)
		}
	}
	// An evicted key re-recorded claims a fresh slot (no stale map entry).
	tr.Record(TraceKey{ClientID: 1, Seq: 0}, 0, 99, HopDeliver)
	snap = tr.Snapshot()
	found := false
	for _, j := range snap.Journeys {
		if j.Key.Seq == 0 {
			found = true
			if j.Hops[HopFlush] != 0 || j.Hops[HopDeliver] == 0 {
				t.Fatalf("re-claimed journey kept stale hops: %+v", j)
			}
		}
	}
	if !found {
		t.Fatal("re-recorded evicted key not re-claimed")
	}
}

func TestTraceSnapshotSlowestFirst(t *testing.T) {
	clk := &fakeNS{}
	tr := NewTrace(nil, "trace", 1, 8)
	tr.SetNow(clk.now)
	// Three journeys flushed at wall 100 with spans 900, 2900, 1900:
	// the drain stamp is pinned at flush+span via the fake clock.
	for i, span := range []int64{900, 2900, 1900} {
		key := TraceKey{ClientID: 9, Seq: uint64(i)}
		clk.t = 0
		tr.Record(key, i, 100, HopFlush)
		clk.t = 100 + span - 1000 // next now() = 100+span
		tr.MarkDrained(key, i, 100)
	}
	snap := tr.Snapshot()
	if len(snap.Journeys) != 3 {
		t.Fatalf("journeys: %d", len(snap.Journeys))
	}
	spans := []int64{snap.Journeys[0].SpanNS(), snap.Journeys[1].SpanNS(), snap.Journeys[2].SpanNS()}
	if !(spans[0] >= spans[1] && spans[1] >= spans[2]) {
		t.Fatalf("not slowest-first: %v", spans)
	}
	if spans[0] != 2900 || spans[2] != 900 {
		t.Fatalf("spans %v", spans)
	}
}

func TestMergeTraceSnapshots(t *testing.T) {
	a := TraceSnapshot{Interval: 64, Total: 100, Sampled: 2,
		Journeys: []Journey{{Key: TraceKey{1, 1}, FlushNS: 10, Hops: [NumHops]int64{10, 0, 0, 0, 0, 50, 0}}}}
	b := TraceSnapshot{Interval: 16, Total: 50, Sampled: 4,
		Journeys: []Journey{{Key: TraceKey{2, 1}, FlushNS: 10, Hops: [NumHops]int64{10, 0, 0, 0, 0, 200, 0}}}}
	c := TraceSnapshot{} // idle plane: no interval, nothing sampled
	m := MergeTraceSnapshots([]TraceSnapshot{a, b, c})
	if m.Total != 150 || m.Sampled != 6 {
		t.Fatalf("counters: %+v", m)
	}
	if m.Interval != 16 {
		t.Fatalf("interval %d, want min non-zero 16", m.Interval)
	}
	if len(m.Journeys) != 2 || m.Journeys[0].Key.ClientID != 2 {
		t.Fatalf("journeys not slowest-first: %+v", m.Journeys)
	}
}

// TestTraceConcurrent hammers the ring from recorders, a drainer, and
// snapshot readers at once — the mutex must keep the slot map and ring
// consistent (run under -race in CI).
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(nil, "trace", 1, 16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := TraceKey{ClientID: uint64(w), Seq: uint64(i)}
				tr.Record(key, w, int64(i+1), HopFlush)
				tr.MarkDrained(key, w, int64(i+1))
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tr.CompleteAnalyze()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s := tr.Snapshot()
			if len(s.Journeys) > 16 {
				panic("snapshot larger than ring")
			}
		}
	}()
	wg.Wait()
	if got := len(tr.Snapshot().Journeys); got != 16 {
		t.Fatalf("final ring population: %d", got)
	}
}

// The tracing tax on unsampled batches (every batch but one in 64) is
// two atomics and a modulo — pinned allocation-free, like the other
// hot-path instrumentation.
func TestTraceHotPathZeroAlloc(t *testing.T) {
	tr := NewTrace(nil, "trace", 64, 8)
	seq := uint64(1) // never hits the interval
	if n := testing.AllocsPerRun(1000, func() {
		if tr.Sample(seq) {
			t.Fatal("unsampled path sampled")
		}
		seq += 2
		if seq%64 == 0 {
			seq++
		}
	}); n != 0 {
		t.Fatalf("Trace.Sample allocates: %v", n)
	}
	var nilTr *Trace
	if n := testing.AllocsPerRun(1000, func() { nilTr.Sample(1) }); n != 0 {
		t.Fatalf("nil Trace.Sample allocates: %v", n)
	}
	// Re-stamping an already-claimed journey (the steady state for a
	// sampled batch's later hops) is also allocation-free.
	key := TraceKey{ClientID: 1, Seq: 64}
	tr.Record(key, 0, 1, HopFlush)
	if n := testing.AllocsPerRun(1000, func() { tr.Record(key, 0, 1, HopWrite) }); n != 0 {
		t.Fatalf("Trace.Record re-stamp allocates: %v", n)
	}
}
