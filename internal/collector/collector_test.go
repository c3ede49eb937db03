package collector

import (
	"reflect"
	"testing"

	"vapro/internal/detect"
	"vapro/internal/sim"
	"vapro/internal/trace"
)

func frag(rank int, start, elapsed int64) trace.Fragment {
	return trace.Fragment{
		Rank: rank, Kind: trace.Comp, From: 1, State: 2,
		Start: start, Elapsed: elapsed,
		Counters: trace.CountersView{TotIns: 1000, Cycles: 500},
	}
}

// TestPoolSizing: a plane is one server at any rank count, so a tier's
// server count is its shard count (the paper's one server per 256
// clients is vapro serve -shards ⌈ranks/256⌉).
func TestPoolSizing(t *testing.T) {
	for _, ranks := range []int{1, 256, 257, 2048} {
		if n := NewPool(ranks, DefaultOptions()).Stats(sim.Second).Servers; n != 1 {
			t.Fatalf("%d ranks → %d servers, want 1", ranks, n)
		}
	}
	tier := NewShardedPool(2048, 8, DefaultOptions())
	if n := tier.Stats(sim.Second).Servers; n != 8 {
		t.Fatalf("8-shard tier → %d servers, want 8", n)
	}
	snap := tier.MergedSnapshot()
	if v := snap.Get("vapro_servers").Value; v != 8 {
		t.Fatalf("merged vapro_servers = %v, want 8", v)
	}
}

func TestGraphMerge(t *testing.T) {
	p := NewPool(4, DefaultOptions())
	for rank := 0; rank < 4; rank++ {
		for i := 0; i < 6; i++ {
			p.Consume(rank, []trace.Fragment{frag(rank, int64(i)*1000, 500)})
		}
	}
	g := p.Graph()
	if g.NumFragments() != 24 {
		t.Fatalf("merged fragments: %d", g.NumFragments())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("merged edges: %d", g.NumEdges())
	}
}

func TestWindowResultsOverlap(t *testing.T) {
	opt := DefaultOptions()
	opt.Period = 10 * sim.Millisecond
	opt.Overlap = 5 * sim.Millisecond
	opt.Detect.Window = sim.Millisecond
	p := NewPool(2, opt)
	// 30ms of fragments per rank.
	for rank := 0; rank < 2; rank++ {
		for i := 0; i < 30; i++ {
			p.Consume(rank, []trace.Fragment{frag(rank, int64(i)*1_000_000, 900_000)})
		}
	}
	wins := p.WindowResults()
	if len(wins) < 5 {
		t.Fatalf("expected ≥5 overlapped windows over 30ms, got %d", len(wins))
	}
	// Consecutive windows overlap by half a period.
	for i := 1; i < len(wins); i++ {
		if wins[i].Start-wins[i-1].Start != sim.Time(opt.Period-opt.Overlap) {
			t.Fatalf("window stride wrong: %v → %v", wins[i-1].Start, wins[i].Start)
		}
		if wins[i].Start >= wins[i-1].End {
			t.Fatal("windows do not overlap")
		}
	}
	for _, w := range wins {
		if w.Result == nil || len(w.Result.Samples[detect.Computation]) == 0 {
			t.Fatal("window analysis empty")
		}
	}
}

// TestWindowResultsRangeOutageSnapshot: a range query marks all its
// windows against one outage snapshot. An outage booked between two
// queries is absent from every window of the first answer and present
// in every window of the second that it overlaps, exactly as a fresh
// single-window pass marks it.
func TestWindowResultsRangeOutageSnapshot(t *testing.T) {
	opt := DefaultOptions()
	opt.Period = 10 * sim.Millisecond
	opt.Overlap = 5 * sim.Millisecond
	opt.Detect.Window = sim.Millisecond
	p := NewPool(2, opt)
	for rank := 0; rank < 2; rank++ {
		for i := 0; i < 30; i++ {
			p.Consume(rank, []trace.Fragment{frag(rank, int64(i)*1_000_000, 900_000)})
		}
	}
	p.SeqState().Observe(1, 0, 0, 1_000_000)
	before := p.WindowResultsRange(0, 0)

	// Two lost batches: rank 1 is stale over [1 ms, 22 ms).
	p.SeqState().Observe(1, 3, 22_000_000, 23_000_000)
	after := p.WindowResultsRange(0, 0)

	if len(before) != len(after) || len(before) < 5 {
		t.Fatalf("answers hold %d and %d windows", len(before), len(after))
	}
	marked := 0
	for i, w := range after {
		if h := before[i].Result.Maps[detect.Computation]; h.Stale != nil {
			t.Fatalf("window [%v,%v) of the first answer marks an outage booked after it", w.Start, w.End)
		}
		want := p.RunWindow(int64(w.Start), int64(w.End)).Maps[detect.Computation]
		got := w.Result.Maps[detect.Computation]
		if !reflect.DeepEqual(got.Stale, want.Stale) {
			t.Fatalf("window [%v,%v): stale marks differ from a fresh pass", w.Start, w.End)
		}
		if got.Stale != nil {
			marked++
		}
	}
	if marked < 3 {
		t.Fatalf("the outage marked %d windows of the second answer, want ≥ 3", marked)
	}
}

func TestWindowResultsEmpty(t *testing.T) {
	p := NewPool(2, DefaultOptions())
	if wins := p.WindowResults(); wins != nil {
		t.Fatalf("empty pool produced windows: %d", len(wins))
	}
}

func TestStats(t *testing.T) {
	p := NewPool(4, DefaultOptions())
	for rank := 0; rank < 4; rank++ {
		p.Consume(rank, []trace.Fragment{frag(rank, 0, 100), frag(rank, 100, 100)})
	}
	st := p.Stats(2 * sim.Second)
	if p.FragmentCount() != 8 || st.Batches != 4 {
		t.Fatalf("stats: %+v, fragments %d", st, p.FragmentCount())
	}
	// BytesIn is the measured wire encoding, not an estimate. Each batch
	// (2 fragments, 2 dictionary keys, identical counters so the second
	// fragment delta-encodes to a few bytes) is 38 bytes with the v1
	// format — this pin catches accidental format or accounting drift.
	wantBatch := len(trace.AppendBatch(nil, 0, []trace.Fragment{frag(0, 0, 100), frag(0, 100, 100)}))
	if wantBatch != 38 {
		t.Fatalf("wire format drifted: batch is %d bytes, want 38", wantBatch)
	}
	if st.BytesIn != 4*int64(wantBatch) {
		t.Fatalf("bytes: %d, want %d", st.BytesIn, 4*wantBatch)
	}
	// 152 bytes / 2s / 4 ranks = 19 B/s/rank.
	if st.BytesPerRankSecond != 19 {
		t.Fatalf("rate: %v", st.BytesPerRankSecond)
	}
	// Sequential consumes stage one batch and immediately drain it via
	// the uncontended TryLock, so the backlog never exceeds one and no
	// backpressure fires; nothing arrived over the wire to be rejected.
	met := p.Metrics()
	if got := met.IntakeStalls.Load(); got != 0 {
		t.Fatalf("stalls: %d, want 0", got)
	}
	if got := met.IntakeStagedPeak.Load(); got != 1 {
		t.Fatalf("max staged depth: %d, want 1", got)
	}
	if got := met.WireFramesRejected.Load(); got != 0 {
		t.Fatalf("frames rejected: %d, want 0", got)
	}
}

func TestArmedHandleShared(t *testing.T) {
	p := NewPool(4, DefaultOptions())
	if p.Armed == nil {
		t.Fatal("pool must expose the armed-groups handle")
	}
	p.Armed.Set(sim.GroupBase | sim.GroupOS)
	if p.Armed.Get() != sim.GroupBase|sim.GroupOS {
		t.Fatal("armed handle not settable")
	}
}
