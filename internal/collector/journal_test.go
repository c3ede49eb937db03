package collector

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vapro/internal/sim"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// seqPayload hand-encodes one sequenced wire frame, bypassing the
// client so tests control the exact sequence numbers the server sees.
func seqPayload(rank int, seq uint64, frags []trace.Fragment) []byte {
	return trace.AppendBatchSeq(nil, rank, seq, frags)
}

// writeRaw frames payload onto conn exactly as the wire clients do.
func writeRaw(t *testing.T, conn net.Conn, payload []byte) {
	t.Helper()
	out := binary.AppendUvarint(nil, uint64(len(payload)))
	out = append(out, payload...)
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
}

// openJournalSink builds a pool over the journal in dir: recover the
// log, replay it through the pool, then attach for live appends —
// the exact startup order `vapro serve -journal` uses.
func openJournalSink(t *testing.T, dir string, ranks int) (*Pool, *wal.Log, int) {
	t.Helper()
	jlog := openTestWAL(t, dir, wal.Options{})
	pool := NewPool(ranks, DefaultOptions())
	n, err := ReplayJournal(jlog, pool)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	pool.AttachJournal(jlog)
	return pool, jlog, n
}

// assertResultsIdentical requires the two window sets to be
// bit-identical: same grid, same cells (NaN-safe via Float64bits),
// same staleness, same regions, same coverage.
func assertResultsIdentical(t *testing.T, got, want []*WindowResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("window count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.End != w.End {
			t.Fatalf("window %d bounds: got [%v,%v], want [%v,%v]", i, g.Start, g.End, w.Start, w.End)
		}
		if len(g.Result.Maps) != len(w.Result.Maps) {
			t.Fatalf("window %d: %d heat maps, want %d", i, len(g.Result.Maps), len(w.Result.Maps))
		}
		for class, wm := range w.Result.Maps {
			gm := g.Result.Maps[class]
			if gm == nil {
				t.Fatalf("window %d: class %v missing", i, class)
			}
			if gm.Ranks != wm.Ranks || gm.Windows != wm.Windows || gm.Origin != wm.Origin || gm.Window != wm.Window {
				t.Fatalf("window %d class %v: grid mismatch", i, class)
			}
			for c := range wm.Cells {
				if math.Float64bits(gm.Cells[c]) != math.Float64bits(wm.Cells[c]) {
					t.Fatalf("window %d class %v cell %d: got %v, want %v (not bit-identical)",
						i, class, c, gm.Cells[c], wm.Cells[c])
				}
			}
			if !reflect.DeepEqual(gm.Stale, wm.Stale) {
				t.Fatalf("window %d class %v: stale masks differ", i, class)
			}
		}
		if len(g.Result.Regions) != len(w.Result.Regions) {
			t.Fatalf("window %d: %d regions, want %d", i, len(g.Result.Regions), len(w.Result.Regions))
		}
		for r := range w.Result.Regions {
			gr, wr := &g.Result.Regions[r], &w.Result.Regions[r]
			if gr.Class != wr.Class || gr.RankMin != wr.RankMin || gr.RankMax != wr.RankMax ||
				gr.WinMin != wr.WinMin || gr.WinMax != wr.WinMax || gr.Cells != wr.Cells ||
				math.Float64bits(gr.MeanPerf) != math.Float64bits(wr.MeanPerf) || gr.LossNS != wr.LossNS {
				t.Fatalf("window %d region %d: got %+v, want %+v", i, r, gr, wr)
			}
		}
		if math.Float64bits(g.Result.OverallCoverage) != math.Float64bits(w.Result.OverallCoverage) {
			t.Fatalf("window %d: coverage %v, want %v", i, g.Result.OverallCoverage, w.Result.OverallCoverage)
		}
	}
}

// poolFragments flattens a pool's graph into canonical order.
func poolFragments(p *Pool) []trace.Fragment {
	fs := allFragments(p.Graph())
	sortFragments(fs)
	return fs
}

// TestConsumeJournals: with a journal attached, Consume journals each
// batch as its wire encoding before staging it, so the journal replays
// into a fresh pool holding the same fragments; ConsumeSized and
// ConsumeTraced journal nothing — their frames are the wire server's,
// which journaled them already.
func TestConsumeJournals(t *testing.T) {
	jlog := openTestWAL(t, t.TempDir(), wal.Options{})
	live, want := NewPool(2, DefaultOptions()), NewPool(2, DefaultOptions())
	live.AttachJournal(jlog)
	for i := 0; i < 3; i++ {
		for r := 0; r < 2; r++ {
			frags := []trace.Fragment{frag(r, int64(i)*int64(sim.Second), int64(sim.Second/2))}
			live.Consume(r, frags)
			want.Consume(r, frags)
		}
	}
	live.ConsumeSized(0, []trace.Fragment{frag(0, 9*int64(sim.Second), 1)}, 1)
	live.ConsumeTraced(1, []trace.Fragment{frag(1, 9*int64(sim.Second), 1)}, 1, TraceCtx{Rank: 1})
	if got := jlog.Pending(); got != 6 {
		t.Fatalf("journal holds %d frames, want the 6 Consume delivered", got)
	}
	replayed := NewPool(2, DefaultOptions())
	if n, err := ReplayJournal(jlog, replayed); err != nil || n != 6 {
		t.Fatalf("replay: %d frames, %v", n, err)
	}
	if !reflect.DeepEqual(poolFragments(replayed), poolFragments(want)) {
		t.Fatal("the journal replayed to other fragments than Consume delivered")
	}
}

// TestShardSinkConsumeJournals: a plane's wire sink takes Pool.Consume's
// path, so a journaled tier fed in process through WireSink(i).Consume
// journals every batch on the plane that took it (a misrouted batch
// too, counted as a misroute), and each plane's journal replays into a
// fresh tier holding the same frames.
func TestShardSinkConsumeJournals(t *testing.T) {
	const ranks, shards = 4, 2
	live := NewShardedPool(ranks, shards, DefaultOptions())
	jlogs := make([]*wal.Log, shards)
	for i := range jlogs {
		jlogs[i] = openTestWAL(t, t.TempDir(), wal.Options{})
		defer jlogs[i].Close()
		live.Plane(i).AttachJournal(jlogs[i])
	}
	sent := make([]int, shards)
	for i := 0; i < 3; i++ {
		for r := 0; r < ranks; r++ {
			s := live.Owner(r)
			if i == 2 && r == 0 {
				s = 1 - s // one batch lands on the plane that does not own its rank
			}
			live.WireSink(s).Consume(r, []trace.Fragment{frag(r, int64(i)*int64(sim.Second), int64(sim.Second/2))})
			sent[s]++
		}
	}
	if got := live.Metrics().ShardMisroutes.Load(); got != 1 {
		t.Fatalf("misroutes = %d, want 1", got)
	}
	replayed := NewShardedPool(ranks, shards, DefaultOptions())
	for i, jlog := range jlogs {
		if got := jlog.Pending(); got != sent[i] {
			t.Fatalf("plane %d journal holds %d frames, want the %d its sink consumed", i, got, sent[i])
		}
		if n, err := ReplayJournal(jlog, replayed.WireSink(i)); err != nil || n != sent[i] {
			t.Fatalf("plane %d replay: %d frames, %v; want %d", i, n, err, sent[i])
		}
		lm, rm := live.WireSink(i).Metrics(), replayed.WireSink(i).Metrics()
		if lm.IntakeBytes.Load() != rm.IntakeBytes.Load() || lm.WireFrames.Load() != rm.WireFrames.Load() {
			t.Fatalf("plane %d books: live %d B / %d frames, replay %d B / %d frames", i,
				lm.IntakeBytes.Load(), lm.WireFrames.Load(), rm.IntakeBytes.Load(), rm.WireFrames.Load())
		}
	}
	if !reflect.DeepEqual(poolFragments(replayed), poolFragments(live)) {
		t.Fatal("the planes' journals replayed to other fragments than their sinks consumed")
	}
}

// TestJournalReplayBitIdentical pins the tentpole equivalence: a live
// wire server journaling a stream with gaps, a duplicate retransmit
// and a client restart, then a fresh pool rebuilt purely from the
// journal, must agree on everything — fragment multiset, sequence
// bookkeeping (gaps, outage intervals, restarts), wire counters, and
// every analysis window bit for bit.
func TestJournalReplayBitIdentical(t *testing.T) {
	dir := t.TempDir()
	jlog := openTestWAL(t, dir, wal.Options{})
	pool1 := NewPool(2, DefaultOptions())
	pool1.AttachJournal(jlog)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWire(ln, pool1)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(rank, i int) []trace.Fragment {
		return []trace.Fragment{frag(rank, int64(i)*3*int64(sim.Second), int64(sim.Second))}
	}
	// rank 0: 0,1,2 clean, jump to 5 (two batches lost), a duplicate
	// retransmit of 3 (suppressed, never journaled), then 6.
	for i, seq := range []uint64{0, 1, 2, 5, 3, 6} {
		writeRaw(t, conn, seqPayload(0, seq, mk(0, i)))
	}
	// rank 1: 0,1,2, then the client restarts (seq back to 0) and
	// sends 0,1,2 of its next generation.
	for i, seq := range []uint64{0, 1, 2, 0, 1, 2} {
		writeRaw(t, conn, seqPayload(1, seq, mk(1, 10+i)))
	}
	const delivered = 11 // 12 frames minus the suppressed duplicate
	if !waitUntil(10*time.Second, func() bool { return srv.Metrics().WireFrames.Load() == delivered }) {
		t.Fatalf("delivered %d batches, want %d", srv.Metrics().WireFrames.Load(), delivered)
	}
	conn.Close()
	srv.Close()
	if err := jlog.Close(); err != nil {
		t.Fatal(err)
	}
	// Rank 1's second seq 0 is a restart: delivered (11 frames, one
	// dup) and charged no gap.
	seq1, m1 := pool1.SeqState(), pool1.Metrics()
	if m1.WireSeqGaps.Load() != 2 || m1.WireDups.Load() != 1 {
		t.Fatalf("live seq books: gaps=%d dups=%d, want 2/1", m1.WireSeqGaps.Load(), m1.WireDups.Load())
	}

	pool2, jlog2, n := openJournalSink(t, dir, 2)
	defer jlog2.Close()
	if n != delivered {
		t.Fatalf("replayed %d frames, want %d", n, delivered)
	}
	seq2, m2 := pool2.SeqState(), pool2.Metrics()
	// Duplicates were never journaled, so replay re-derives the exact
	// delivered stream: same gaps and restarts, zero dups of its own.
	if m2.WireSeqGaps.Load() != 2 || m2.WireDups.Load() != 0 {
		t.Fatalf("replayed seq books: gaps=%d dups=%d, want 2/0", m2.WireSeqGaps.Load(), m2.WireDups.Load())
	}
	if !reflect.DeepEqual(seq2.Outages(), seq1.Outages()) {
		t.Fatalf("outage intervals differ:\n  live   %+v\n  replay %+v", seq1.Outages(), seq2.Outages())
	}
	if m2.WireFrames.Load() != m1.WireFrames.Load() || m2.WireBytes.Load() != m1.WireBytes.Load() {
		t.Fatalf("wire counters: replay frames=%d bytes=%d, live frames=%d bytes=%d",
			m2.WireFrames.Load(), m2.WireBytes.Load(), m1.WireFrames.Load(), m1.WireBytes.Load())
	}
	if !reflect.DeepEqual(poolFragments(pool2), poolFragments(pool1)) {
		t.Fatal("fragment multisets differ between live pool and journal replay")
	}
	w1, w2 := pool1.WindowResults(), pool2.WindowResults()
	if len(w1) == 0 {
		t.Fatal("no analysis windows produced")
	}
	assertResultsIdentical(t, w2, w1)
	pool1.Close()
	pool2.Close()
}

// TestWindowResultsRange pins the historical-query contract: the range
// variant walks the same zero-anchored grid as the full query, so its
// rows are exactly the full rows whose window intersects [from, to) —
// never a re-bucketed approximation.
func TestWindowResultsRange(t *testing.T) {
	pool := NewPool(2, DefaultOptions())
	defer pool.Close()
	for b := 0; b < 60; b++ {
		r := b % 2
		pool.Consume(r, []trace.Fragment{frag(r, int64(b)*int64(sim.Second), int64(sim.Second)/2)})
	}
	full := pool.WindowResults()
	if len(full) < 4 {
		t.Fatalf("need several windows to filter, got %d", len(full))
	}
	from, to := int64(10*sim.Second), int64(40*sim.Second)
	var want []*WindowResult
	for _, w := range full {
		if int64(w.End) <= from || int64(w.Start) >= to {
			continue
		}
		want = append(want, w)
	}
	if len(want) == 0 || len(want) == len(full) {
		t.Fatalf("filter must bite: %d of %d windows in range", len(want), len(full))
	}
	got := pool.WindowResultsRange(from, to)
	assertResultsIdentical(t, got, want)

	// to <= 0 means end-of-data; (0, 0) is the full query.
	assertResultsIdentical(t, pool.WindowResultsRange(0, 0), full)
	tail := pool.WindowResultsRange(from, 0)
	var wantTail []*WindowResult
	for _, w := range full {
		if int64(w.End) > from {
			wantTail = append(wantTail, w)
		}
	}
	assertResultsIdentical(t, tail, wantTail)
}

// TestSeqRetransmitAfterJournalReplaySuppressed pins the restart edge
// the journal exists for: a server dies and is rebuilt from its
// journal, then a client retransmits frames the dead server had
// already delivered. The rebuilt tracker must suppress them as
// duplicates — not deliver them twice, not charge a gap.
func TestSeqRetransmitAfterJournalReplaySuppressed(t *testing.T) {
	dir := t.TempDir()
	jlog := openTestWAL(t, dir, wal.Options{})
	pool1 := NewPool(1, DefaultOptions())
	pool1.AttachJournal(jlog)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv1 := ServeWire(ln, pool1)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 4; seq++ {
		writeRaw(t, conn, seqPayload(0, seq, []trace.Fragment{frag(0, int64(seq)*1000, 500)}))
	}
	if !waitUntil(10*time.Second, func() bool { return srv1.Metrics().WireFrames.Load() == 4 }) {
		t.Fatalf("delivered %d, want 4", srv1.Metrics().WireFrames.Load())
	}
	conn.Close()
	srv1.Close()
	jlog.Close()
	pool1.Close()

	pool2, jlog2, n := openJournalSink(t, dir, 1)
	defer pool2.Close()
	defer jlog2.Close()
	if n != 4 {
		t.Fatalf("replayed %d, want 4", n)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := ServeWire(ln2, pool2)
	defer srv2.Close()
	// srv2 counts into pool2's surface, which the replay already
	// advanced: what it delivered live is the delta past the replay.
	replayed := pool2.Metrics().WireFrames.Load()
	live := func() uint64 { return srv2.Metrics().WireFrames.Load() - replayed }
	conn2, err := net.Dial("tcp", ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	// The client never heard the acks, so it retransmits 2 and 3, then
	// continues with fresh work at 4.
	for _, seq := range []uint64{2, 3, 4} {
		writeRaw(t, conn2, seqPayload(0, seq, []trace.Fragment{frag(0, int64(seq)*1000, 500)}))
	}
	m2 := pool2.Metrics()
	if !waitUntil(10*time.Second, func() bool { return m2.WireDups.Load() == 2 && live() == 1 }) {
		t.Fatalf("dups=%d live-delivered=%d, want 2 and 1", m2.WireDups.Load(), live())
	}
	if got := m2.WireFrames.Load(); got != 5 {
		t.Fatalf("total delivered frames %d, want 5 (4 replayed + 1 live)", got)
	}
	if gaps := m2.WireSeqGaps.Load(); gaps != 0 {
		t.Fatalf("retransmit charged %d gap frames, want 0", gaps)
	}
}

// TestSeqClientRestartInJournalReplay pins the other restart edge: a
// journal that *contains* a client restart (seq back to zero
// mid-stream) replays without double-booking — every frame delivered,
// one restart, zero gaps.
func TestSeqClientRestartInJournalReplay(t *testing.T) {
	dir := t.TempDir()
	jlog := openTestWAL(t, dir, wal.Options{})
	pool1 := NewPool(1, DefaultOptions())
	pool1.AttachJournal(jlog)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWire(ln, pool1)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range []uint64{0, 1, 2, 0, 1, 2, 3} {
		writeRaw(t, conn, seqPayload(0, seq, []trace.Fragment{frag(0, int64(i)*1000, 500)}))
	}
	if !waitUntil(10*time.Second, func() bool { return srv.Metrics().WireFrames.Load() == 7 }) {
		t.Fatalf("delivered %d, want 7", srv.Metrics().WireFrames.Load())
	}
	conn.Close()
	srv.Close()
	jlog.Close()
	pool1.Close()

	pool2, jlog2, n := openJournalSink(t, dir, 1)
	defer pool2.Close()
	defer jlog2.Close()
	if n != 7 {
		t.Fatalf("replayed %d, want 7", n)
	}
	m := pool2.Metrics()
	// The second seq 0 replays as a restart: delivered, no gap, no dup.
	if m.WireSeqGaps.Load() != 0 || m.WireDups.Load() != 0 {
		t.Fatalf("replayed seq books: gaps=%d dups=%d, want 0/0", m.WireSeqGaps.Load(), m.WireDups.Load())
	}
	if got := pool2.FragmentCount(); got != 7 {
		t.Fatalf("fragments %d, want 7", got)
	}
}

// TestJournalKillPointsEquivalence is the crash-point sweep: truncate
// the journal's tail segment at arbitrary byte offsets (simulating a
// server killed mid-append), and require that recovery never errors
// and the replayed pool is bit-identical to a live, uninterrupted wire
// run fed the surviving frame prefix.
func TestJournalKillPointsEquivalence(t *testing.T) {
	dir := t.TempDir()
	jlog := openTestWAL(t, dir, wal.Options{})
	pool1 := NewPool(2, DefaultOptions())
	pool1.AttachJournal(jlog)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWire(ln, pool1)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const frames = 30
	payloads := make([][]byte, frames)
	for i := 0; i < frames; i++ {
		rank := i % 2
		p := seqPayload(rank, uint64(i/2), []trace.Fragment{frag(rank, int64(i)*int64(sim.Second), int64(sim.Second)/2)})
		payloads[i] = p
		writeRaw(t, conn, p)
	}
	if !waitUntil(10*time.Second, func() bool { return srv.Metrics().WireFrames.Load() == frames }) {
		t.Fatalf("delivered %d, want %d", srv.Metrics().WireFrames.Load(), frames)
	}
	conn.Close()
	srv.Close()
	jlog.Close()
	pool1.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments: %v", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	sz := fi.Size()
	cuts := []int64{1, 2, 5, sz / 2, sz - 1}
	for _, cut := range cuts {
		if cut <= 0 || cut >= sz {
			continue
		}
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			// Copy the journal and tear its tail mid-record.
			torn := t.TempDir()
			for _, s := range segs {
				data, err := os.ReadFile(s)
				if err != nil {
					t.Fatal(err)
				}
				if s == last {
					data = data[:sz-cut]
				}
				if err := os.WriteFile(filepath.Join(torn, filepath.Base(s)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			rep := NewPool(2, DefaultOptions())
			defer rep.Close()
			tlog := openTestWAL(t, torn, wal.Options{})
			defer tlog.Close()
			n, err := ReplayJournal(tlog, rep)
			if err != nil {
				t.Fatalf("replay after torn tail: %v", err)
			}
			if n >= frames {
				t.Fatalf("replayed %d frames from a torn journal of %d", n, frames)
			}
			// Reference: an uninterrupted live wire run over the same
			// surviving prefix, through a completely separate path.
			ref := NewPool(2, DefaultOptions())
			defer ref.Close()
			lnr, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			rsrv := ServeWire(lnr, ref)
			rconn, err := net.Dial("tcp", lnr.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range payloads[:n] {
				writeRaw(t, rconn, p)
			}
			if !waitUntil(10*time.Second, func() bool { return rsrv.Metrics().WireFrames.Load() == uint64(n) }) {
				t.Fatalf("reference delivered %d, want %d", rsrv.Metrics().WireFrames.Load(), n)
			}
			rconn.Close()
			rsrv.Close()
			if !reflect.DeepEqual(poolFragments(rep), poolFragments(ref)) {
				t.Fatal("fragment multisets differ from uninterrupted reference run")
			}
			assertResultsIdentical(t, rep.WindowResults(), ref.WindowResults())
		})
	}
}

// TestChaosSoakJournalCrashReplay is the durability soak: a journaling
// server is killed mid-run, clients ride out the outage by spilling to
// their WALs and then die themselves (persisting the backlog), and a
// second generation of both tiers — server rebuilt from the journal,
// clients replaying their WALs — must account for every consumed batch
// with zero losses: consumed == delivered + gaps, gaps == abandoned.
// Finally the journal alone must reproduce the live server's window
// analysis bit for bit (the `vapro analyze -journal` contract).
func TestChaosSoakJournalCrashReplay(t *testing.T) {
	const (
		ranks  = 3
		phaseA = 10 // batches per rank with the server up
		phaseB = 12 // batches per rank during the outage (deeper than MaxSpill)
		phaseC = 5  // batches per rank after both tiers restart
	)
	jdir := t.TempDir()
	wdir := t.TempDir()
	ropt := func(r int, l *wal.Log) ResilientOptions {
		return ResilientOptions{
			MaxSpill:    4,
			WAL:         l,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
			Rand:        func() float64 { return 0.5 },
		}
	}
	batchIdx := 0
	mkBatch := func(r int) []trace.Fragment {
		batchIdx++
		return []trace.Fragment{frag(r, int64(batchIdx)*int64(sim.Second)/4, int64(sim.Second)/8)}
	}

	// Generation 1: journaling server, WAL-backed clients.
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	pool1, jlog1, _ := openJournalSink(t, jdir, ranks)
	srv1 := ServeWire(ln1, pool1)
	gen1 := make([]*ResilientClient, ranks)
	for r := 0; r < ranks; r++ {
		wl := openTestWAL(t, filepath.Join(wdir, fmt.Sprintf("rank%d", r)), wal.Options{})
		gen1[r] = NewResilientClient(func() (net.Conn, error) { return net.Dial("tcp", addr) }, ropt(r, wl))
	}
	for b := 0; b < phaseA; b++ {
		for r := 0; r < ranks; r++ {
			gen1[r].Consume(r, mkBatch(r))
		}
	}
	if !waitUntil(10*time.Second, func() bool {
		return pool1.Metrics().WireFrames.Load() == uint64(ranks*phaseA)
	}) {
		t.Fatalf("phase A delivered %d, want %d", pool1.Metrics().WireFrames.Load(), ranks*phaseA)
	}

	// Kill the server tier abruptly; clients keep producing into the
	// outage, overflow their memory queues, and migrate to disk.
	srv1.Close()
	jlog1.Close()
	for b := 0; b < phaseB; b++ {
		for r := 0; r < ranks; r++ {
			gen1[r].Consume(r, mkBatch(r))
		}
	}
	// Now the client tier dies too: Close persists the backlog.
	var consumed, sent1, lost, abandoned uint64
	for r := 0; r < ranks; r++ {
		gen1[r].Close()
		st := gen1[r].Stats()
		consumed += st.Consumed
		sent1 += st.Sent
		lost += st.Lost
		abandoned += st.Abandoned
	}
	if consumed != uint64(ranks*(phaseA+phaseB)) {
		t.Fatalf("gen1 consumed %d, want %d", consumed, ranks*(phaseA+phaseB))
	}
	if lost != 0 {
		t.Fatalf("gen1 lost %d batches despite WALs", lost)
	}

	// Generation 2: server rebuilt from its journal on the same
	// address, clients replaying their WALs, plus fresh work (whose
	// restarted numbering must not confuse the rebuilt tracker).
	// A write racing the server kill may have landed (delivered and
	// journaled) or died on the socket — at most one in-flight frame
	// per rank either way.
	pool2, jlog2, nrep := openJournalSink(t, jdir, ranks)
	if nrep < ranks*phaseA || nrep > ranks*(phaseA+1) {
		t.Fatalf("journal replayed %d frames, want %d..%d", nrep, ranks*phaseA, ranks*(phaseA+1))
	}
	srv2 := ServeWire(listenRetry(t, addr), pool2)
	gen2 := make([]*ResilientClient, ranks)
	for r := 0; r < ranks; r++ {
		wl := openTestWAL(t, filepath.Join(wdir, fmt.Sprintf("rank%d", r)), wal.Options{})
		if wl.Pending() == 0 {
			t.Fatalf("rank %d WAL empty after gen1 death", r)
		}
		gen2[r] = NewResilientClient(func() (net.Conn, error) { return net.Dial("tcp", addr) }, ropt(r, wl))
	}
	for b := 0; b < phaseC; b++ {
		for r := 0; r < ranks; r++ {
			gen2[r].Consume(r, mkBatch(r))
			consumed++
		}
	}

	// Zero loss: every batch either landed or is accounted as a gap,
	// and the only gaps are the frames gen1 had to abandon at Close.
	met2, seq2 := pool2.Metrics(), pool2.SeqState()
	if !waitUntil(20*time.Second, func() bool {
		return met2.WireFrames.Load()+met2.WireSeqGaps.Load() == consumed
	}) {
		t.Fatalf("balance never closed: delivered=%d gaps=%d consumed=%d",
			met2.WireFrames.Load(), met2.WireSeqGaps.Load(), consumed)
	}
	for r := 0; r < ranks; r++ {
		gen2[r].Close()
		st := gen2[r].Stats()
		lost += st.Lost
		abandoned += st.Abandoned
		if st.WALPending != 0 || st.SpillDepth != 0 {
			t.Fatalf("rank %d gen2 left %d WAL-pending / %d queued after drain", r, st.WALPending, st.SpillDepth)
		}
	}
	if lost != 0 {
		t.Fatalf("lost %d batches across both generations", lost)
	}
	// Gaps are exactly the accounted casualties: frames abandoned at
	// close plus every frame gen1 wrote into the OS buffer that the first
	// server never journaled (a writer may complete several writes on the
	// closing socket before the reset reaches it).
	died := sent1 - uint64(nrep)
	if gaps := met2.WireSeqGaps.Load(); gaps != abandoned+died {
		t.Fatalf("gaps=%d, want %d (abandoned %d + %d sent but never journaled)",
			gaps, abandoned+died, abandoned, died)
	}
	// Each rank's gen2 numbering restarts at 0: were it taken for a
	// duplicate, the balance above would never close.
	if dups := met2.WireDups.Load(); dups != 0 {
		t.Fatalf("dups=%d, want 0 (gen2's fresh numbering is a restart, not a retransmit)", dups)
	}
	srv2.Close()
	jlog2.Close()

	// The analyze contract: a third pool built from the journal alone
	// reproduces the live gen2 server's state bit for bit.
	pool3, jlog3, n3 := openJournalSink(t, jdir, ranks)
	defer pool3.Close()
	defer jlog3.Close()
	if n3 != int(met2.WireFrames.Load()) {
		t.Fatalf("final journal holds %d frames, live server delivered %d", n3, met2.WireFrames.Load())
	}
	seq3, met3 := pool3.SeqState(), pool3.Metrics()
	if met3.WireSeqGaps.Load() != met2.WireSeqGaps.Load() || met3.WireDups.Load() != 0 {
		t.Fatalf("replayed seq books gaps=%d dups=%d, live gaps=%d",
			met3.WireSeqGaps.Load(), met3.WireDups.Load(), met2.WireSeqGaps.Load())
	}
	if !reflect.DeepEqual(seq3.Outages(), seq2.Outages()) {
		t.Fatal("outage intervals differ between live run and journal replay")
	}
	if !reflect.DeepEqual(poolFragments(pool3), poolFragments(pool2)) {
		t.Fatal("fragment multisets differ between live run and journal replay")
	}
	assertResultsIdentical(t, pool3.WindowResults(), pool2.WindowResults())
	pool1.Close()
	pool2.Close()
}
