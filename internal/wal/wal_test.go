package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"vapro/internal/obs"
)

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("payload-%04d", i))
	}
	return out
}

// drain consumes every pending record through the cursor.
func drain(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		p, err := l.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if p == nil {
			return out
		}
		cp := make([]byte, len(p))
		copy(cp, p)
		out = append(out, cp)
		l.Ack()
	}
}

func TestAppendNextAckRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := payloads(10)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	// Next without Ack peeks the same record.
	a, _ := l.Next()
	b, _ := l.Next()
	if !bytes.Equal(a, b) || !bytes.Equal(a, want[0]) {
		t.Fatalf("peek mismatch: %q vs %q", a, b)
	}
	got := drain(t, l)
	if len(got) != len(want) {
		t.Fatalf("drained %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", l.Pending())
	}
}

// TestDrainUnderAppendReadsOnlyTheTail is a spill WAL drained while the
// writer appends: every Next after an Append finds the active segment
// grown. Extending the cursor's cache must read only the appended tail —
// re-reading the whole segment each round allocated ≈ 500× the appended
// bytes — and must leave the bytes of an earlier peek intact.
func TestDrainUnderAppendReadsOnlyTheTail(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const rounds, size = 1000, 4 << 10
	p := make([]byte, size)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < rounds; i++ {
		binary.LittleEndian.PutUint32(p, uint32(i))
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		got, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("round %d: peeked record %d", i, binary.LittleEndian.Uint32(got))
		}
		l.Ack()
	}
	runtime.ReadMemStats(&ms)
	if alloc, limit := ms.TotalAlloc-before, uint64(8*rounds*size); alloc > limit {
		t.Fatalf("%d rounds allocated %d B, want ≤ %d (8× the appended bytes)", rounds, alloc, limit)
	}

	// A peek taken before the segment grew keeps its bytes while the
	// cache extends behind it.
	if err := l.Append([]byte("held")); err != nil {
		t.Fatal(err)
	}
	held, _ := l.Next()
	if err := l.Append([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if again, _ := l.Next(); !bytes.Equal(again, held) {
		t.Fatalf("repeated peek %q, want %q", again, held)
	}
	l.Ack()
	if got, _ := l.Next(); string(got) != "next" || string(held) != "held" {
		t.Fatalf("after extending: next %q, held peek %q", got, held)
	}
}

func TestRotationAndAckReclaimsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range payloads(20) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	if got := drain(t, l); len(got) != 20 {
		t.Fatalf("drained %d, want 20", len(got))
	}
	// Every sealed segment should have been deleted at Ack time; only
	// the active one remains.
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("segments after full drain = %d, want 1", st.Segments)
	}
	// Only the active segment remains on disk (plus the cursor record).
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segment files on disk = %d, want 1", len(segs))
	}
}

func TestReopenReplaysPending(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(9)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// Consume 3, then "crash" (close without acking the rest).
	for i := 0; i < 3; i++ {
		if _, err := l.Next(); err != nil {
			t.Fatal(err)
		}
		l.Ack()
	}
	l.Close()

	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := drain(t, l2)
	// Acks are not persisted: everything in surviving segments comes
	// back. Re-delivery of the acked prefix is allowed (the consumer
	// dedups); loss is not.
	if len(got) < 6 {
		t.Fatalf("reopen replayed %d records, want >= 6", len(got))
	}
	tail := got[len(got)-6:]
	for i, p := range want[3:] {
		if !bytes.Equal(tail[i], p) {
			t.Fatalf("replayed record %d = %q, want %q", i, tail[i], p)
		}
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(5)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Tear the tail: append half a record's worth of garbage.
	seg := filepath.Join(dir, "wal-00000001.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x0c, 'p', 'a', 'r'})
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", st.Truncated)
	}
	got := drain(t, l2)
	if len(got) != 5 {
		t.Fatalf("recovered %d records, want 5", len(got))
	}
	// The log must keep working after truncation.
	if err := l2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	p, _ := l2.Next()
	if string(p) != "after" {
		t.Fatalf("post-recovery append read back %q", p)
	}
}

func TestRecoveryTruncatesCorruptRecordKeepsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 48})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(8) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Stats().Segments
	if segs < 3 {
		t.Fatalf("want >= 3 segments, got %d", segs)
	}
	l.Close()
	// Flip a payload bit in the middle segment: CRC fails there, the
	// segment is cut at the previous record, later segments survive.
	seg2 := filepath.Join(dir, "wal-00000002.seg")
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+3] ^= 0xff
	if err := os.WriteFile(seg2, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 48})
	if err != nil {
		t.Fatalf("recovery failed on corrupt record: %v", err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", st.Truncated)
	}
	got := drain(t, l2)
	if len(got) == 0 || len(got) >= 8 {
		t.Fatalf("recovered %d records, want some but not all of 8", len(got))
	}
	// Records from segments after the corrupt one must be present.
	found := false
	for _, p := range got {
		if string(p) == "payload-0007" {
			found = true
		}
	}
	if !found {
		t.Fatal("records after the corrupt segment were lost")
	}
}

func TestRetentionByBytesBooksDrops(t *testing.T) {
	dir := t.TempDir()
	var dropped [][]byte
	l, err := Open(dir, Options{
		SegmentBytes: 64,
		MaxBytes:     200,
		OnDrop: func(ps [][]byte) {
			for _, p := range ps {
				cp := make([]byte, len(p))
				copy(cp, p)
				dropped = append(dropped, cp)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := payloads(30)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Bytes > 200+64+32 {
		t.Fatalf("log grew past budget: %d bytes", st.Bytes)
	}
	if st.Reclaimed == 0 || st.Dropped == 0 || len(dropped) == 0 {
		t.Fatalf("retention never reclaimed: %+v", st)
	}
	got := drain(t, l)
	// Exact accounting: every appended record was either drained or
	// surfaced through OnDrop, oldest-first, with no overlap.
	if len(got)+len(dropped) != len(want) {
		t.Fatalf("drained %d + dropped %d != appended %d", len(got), len(dropped), len(want))
	}
	all := append(append([][]byte{}, dropped...), got...)
	for i, p := range want {
		if !bytes.Equal(all[i], p) {
			t.Fatalf("record %d: got %q want %q (drop/drain order broken)", i, all[i], p)
		}
	}
}

// TestRetentionDetachesInFlightPeek pins the mid-flight reclaim
// semantics: when retention removes the segment holding a peeked
// record, the record detaches — it is not booked dropped (the consumer
// may be sending it right now), repeated Next calls keep returning it,
// and Ack settles its pending count — while the unread records behind
// it in the same segment are booked through OnDrop as usual.
func TestRetentionDetachesInFlightPeek(t *testing.T) {
	dir := t.TempDir()
	var dropped [][]byte
	l, err := Open(dir, Options{
		SegmentBytes: 48, // ~2 records per segment
		MaxBytes:     100,
		OnDrop: func(ps [][]byte) {
			for _, p := range ps {
				cp := make([]byte, len(p))
				copy(cp, p)
				dropped = append(dropped, cp)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := payloads(12)
	if err := l.Append(want[0]); err != nil {
		t.Fatal(err)
	}
	// Peek the oldest record — the consumer now "holds" it in flight.
	peeked, err := l.Next()
	if err != nil || !bytes.Equal(peeked, want[0]) {
		t.Fatalf("Next = %q, %v; want %q", peeked, err, want[0])
	}
	// Pile on appends until retention must reclaim the peeked segment.
	for _, p := range want[1:] {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Reclaimed == 0 {
		t.Fatalf("retention never reclaimed with a peek held: %+v", l.Stats())
	}
	for _, d := range dropped {
		if bytes.Equal(d, want[0]) {
			t.Fatal("in-flight peeked record was booked dropped")
		}
	}
	// The detached record survives re-peek and settles on Ack.
	again, err := l.Next()
	if err != nil || !bytes.Equal(again, want[0]) {
		t.Fatalf("re-peek after detach = %q, %v; want %q", again, err, want[0])
	}
	before := l.Pending()
	l.Ack()
	if got := l.Pending(); got != before-1 {
		t.Fatalf("Ack of detached record: pending %d -> %d", before, got)
	}
	got := drain(t, l)
	// Exact accounting across the whole run: the peeked record was
	// consumed exactly once, everything else drained or dropped once.
	all := append([][]byte{want[0]}, dropped...)
	all = append(all, got...)
	if len(all) != len(want) {
		t.Fatalf("consumed %d + dropped %d != appended %d", 1+len(got), len(dropped), len(want))
	}
	seen := map[string]int{}
	for _, p := range all {
		seen[string(p)]++
	}
	for _, p := range want {
		if seen[string(p)] != 1 {
			t.Fatalf("record %q consumed %d times", p, seen[string(p)])
		}
	}
}

func TestRetentionByAge(t *testing.T) {
	now := time.Unix(1000, 0)
	l, err := Open(t.TempDir(), Options{
		SegmentBytes: 64,
		MaxAge:       time.Minute,
		Now:          func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range payloads(10) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	if before.Segments < 2 {
		t.Fatalf("want rotation, got %d segments", before.Segments)
	}
	now = now.Add(2 * time.Minute)
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Reclaimed == 0 {
		t.Fatal("age retention never reclaimed a segment")
	}
	if after.Segments >= before.Segments {
		t.Fatalf("segments did not shrink: %d -> %d", before.Segments, after.Segments)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy SyncPolicy
		min    int
	}{{SyncEach, 10}, {SyncRotate, 1}, {SyncNever, 0}} {
		syncs := 0
		l, err := Open(t.TempDir(), Options{
			SegmentBytes: 64,
			Sync:         tc.policy,
			SyncFn:       func(*os.File) error { syncs++; return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads(10) {
			if err := l.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if tc.policy == SyncNever {
			l.mu.Lock()
			closedSyncs := syncs
			l.mu.Unlock()
			if closedSyncs != 0 {
				t.Errorf("policy %v: %d fsyncs before close, want 0", tc.policy, syncs)
			}
		}
		if syncs < tc.min {
			t.Errorf("policy %v: %d fsyncs, want >= %d", tc.policy, syncs, tc.min)
		}
		l.Close()
	}
}

func TestAppendErrorLeavesPayloadWithCaller(t *testing.T) {
	boom := errors.New("disk full")
	failing := false
	l, err := Open(t.TempDir(), Options{
		WriteErr: func() error {
			if failing {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	failing = true
	if err := l.Append([]byte("rejected")); !errors.Is(err, boom) {
		t.Fatalf("Append error = %v, want %v", err, boom)
	}
	failing = false
	if l.Pending() != 1 {
		t.Fatalf("failed append changed pending: %d", l.Pending())
	}
	got := drain(t, l)
	if len(got) != 1 || string(got[0]) != "ok" {
		t.Fatalf("log content after failed append: %q", got)
	}
}

func TestReplayIndependentOfCursor(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := payloads(12)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	if err := l.Replay(func(p []byte) error {
		cp := make([]byte, len(p))
		copy(cp, p)
		got = append(got, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("replay record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Replay left the cursor untouched.
	if l.Pending() != len(want) {
		t.Fatalf("Replay consumed records: pending %d", l.Pending())
	}
}

func TestHostileSegmentsNeverPanicRecovery(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"short-header": {'V', 'W', 'A'},
		"bad-magic":    append([]byte("XXXX\x01"), make([]byte, 16)...),
		"bad-version":  append([]byte("VWAL\x7f"), make([]byte, 16)...),
		"header-only":  append([]byte("VWAL\x01"), make([]byte, 8)...),
		"huge-length":  append(append([]byte("VWAL\x01"), make([]byte, 8)...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"garbage":      append(append([]byte("VWAL\x01"), make([]byte, 8)...), bytes.Repeat([]byte{0xa5}, 100)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("recovery errored on hostile segment: %v", err)
			}
			defer l.Close()
			// The log must be appendable and drainable afterwards.
			if err := l.Append([]byte("alive")); err != nil {
				t.Fatal(err)
			}
			got := drain(t, l)
			if len(got) == 0 || string(got[len(got)-1]) != "alive" {
				t.Fatalf("log unusable after hostile recovery: %q", got)
			}
		})
	}
}

func TestMetricsSurface(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, "spill")
	l, err := Open(t.TempDir(), Options{SegmentBytes: 64, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	RegisterOldestAge(reg, "spill", l)
	for _, p := range payloads(10) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if m.Appended.Load() != 10 {
		t.Fatalf("appended counter = %d", m.Appended.Load())
	}
	if m.Segments.Load() < 2 || m.Pending.Load() != 10 {
		t.Fatalf("gauges: segments=%d pending=%d", m.Segments.Load(), m.Pending.Load())
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"vapro_wal_spill_segments", "vapro_wal_spill_bytes",
		"vapro_wal_spill_pending", "vapro_wal_spill_appended_total",
		"vapro_wal_spill_oldest_age_seconds", "vapro_wal_spill_replay_in_progress",
	} {
		if snap.Get(name) == nil {
			t.Errorf("registry missing %s", name)
		}
	}
}

// TestCursorPersistsAcrossReopen pins the exact-resume contract: acked
// records do not come back on reopen. Without this, a restarted client
// would retransmit its earliest frames — including sequence zero, which
// a rebuilt server must read as a client restart, double-delivering the
// whole acked prefix into the analysis.
func TestCursorPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(9)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Next(); err != nil {
			t.Fatal(err)
		}
		l.Ack()
	}
	l.Close()

	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Pending(); got != 5 {
		t.Fatalf("reopen pending = %d, want 5 (acked prefix must not resurface)", got)
	}
	got := drain(t, l2)
	if len(got) != 5 {
		t.Fatalf("reopen replayed %d records, want 5", len(got))
	}
	for i, p := range want[4:] {
		if !bytes.Equal(got[i], p) {
			t.Fatalf("replayed record %d = %q, want %q", i, got[i], p)
		}
	}
}

// TestCursorTornFallsBackToFullReplay pins the failure mode: a cursor
// that fails its CRC (torn write at power loss) degrades to replaying
// every surviving record — at-least-once, never loss.
func TestCursorTornFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	// One big active segment: nothing is deleted at ack time, so the
	// acked prefix is still on disk for the fallback to resurface.
	l, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(6)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Next(); err != nil {
			t.Fatal(err)
		}
		l.Ack()
	}
	l.Close()
	// Tear the cursor record.
	cpath := filepath.Join(dir, "cursor")
	data, err := os.ReadFile(cpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cpath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := drain(t, l2)
	if len(got) != len(want) {
		t.Fatalf("torn cursor replayed %d records, want all %d", len(got), len(want))
	}
	for i, p := range want {
		if !bytes.Equal(got[i], p) {
			t.Fatalf("record %d = %q, want %q", i, got[i], p)
		}
	}
}

// TestCursorAcrossDeletedSegments pins resume when the cursor's own
// segment vanished: acking through a sealed segment deletes it on the
// spot, and a reopen must resume at the first surviving record, not
// double-deliver or lose.
func TestCursorAcrossDeletedSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 48})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(10)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("need several sealed segments, got %d", st.Segments)
	}
	// Ack through the first two segments' worth.
	for i := 0; i < 6; i++ {
		if _, err := l.Next(); err != nil {
			t.Fatal(err)
		}
		l.Ack()
	}
	l.Close()

	l2, err := Open(dir, Options{SegmentBytes: 48})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Pending(); got != 4 {
		t.Fatalf("reopen pending = %d, want 4", got)
	}
	got := drain(t, l2)
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
	for i, p := range want[6:] {
		if !bytes.Equal(got[i], p) {
			t.Fatalf("record %d = %q, want %q", i, got[i], p)
		}
	}
}

// TestAppendReusesRecordBuffer: a warm append that opens no segment
// allocates nothing — the record is framed in the log's own buffer —
// and reusing that buffer leaves every written record intact.
func TestAppendReusesRecordBuffer(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("frame"), 40)
	if err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		i++
		payload[0] = byte(i)
		if err := l.Append(payload[:len(payload)-i%7]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Append allocates %.1f times", allocs)
	}
	got := drain(t, l)
	if len(got) != runs+2 { // AllocsPerRun adds one warm-up call
		t.Fatalf("%d records, want %d", len(got), runs+2)
	}
	for j, rec := range got[1:] {
		want := bytes.Repeat([]byte("frame"), 40)[:len(payload)-(j+1)%7]
		want[0] = byte(j + 1)
		if !bytes.Equal(rec, want) {
			t.Fatalf("record %d = %q, want %q", j+1, rec, want)
		}
	}
}
