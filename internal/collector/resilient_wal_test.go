package collector

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vapro/internal/faults"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// openTestWAL opens a small-segment spill log in dir.
func openTestWAL(t *testing.T, dir string, opt wal.Options) *wal.Log {
	t.Helper()
	if opt.SegmentBytes == 0 {
		opt.SegmentBytes = 256
	}
	l, err := wal.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestResilientSpillToWALZeroLoss pins the tentpole property: with a
// WAL attached, queue overflow migrates to disk instead of evicting, so
// an outage deeper than the memory bound loses nothing — every consumed
// batch is eventually delivered, in per-rank order, with zero gaps.
func TestResilientSpillToWALZeroLoss(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2, DefaultOptions())
	srv := ServeWire(ln, pool)
	defer srv.Close()

	var up atomic.Bool
	dial := func() (net.Conn, error) {
		if !up.Load() {
			return nil, errors.New("collector down")
		}
		return net.Dial("tcp", ln.Addr().String())
	}
	log := openTestWAL(t, t.TempDir(), wal.Options{})
	c := NewResilientClient(dial, ResilientOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		MaxSpill:    3,
		WAL:         log,
	})
	defer c.Close()

	const batches = 40
	for i := 0; i < batches; i++ {
		rank := i % 2
		c.Consume(rank, []trace.Fragment{frag(rank, int64(i)*1000, 500)})
	}
	st := c.Stats()
	if st.Lost != 0 {
		t.Fatalf("overflow with WAL lost %d batches", st.Lost)
	}
	if st.WALPending == 0 {
		t.Fatal("overflow never reached the WAL")
	}
	if st.SpillDepth > 3 {
		t.Fatalf("memory queue exceeded its bound: %d", st.SpillDepth)
	}

	up.Store(true)
	if !c.Drain(10 * time.Second) {
		t.Fatalf("drain never finished: %+v", c.Stats())
	}
	st = c.Stats()
	if st.Sent != batches || st.Lost != 0 || st.WALPending != 0 {
		t.Fatalf("sent=%d lost=%d walPending=%d, want %d/0/0", st.Sent, st.Lost, st.WALPending, batches)
	}
	met := srv.Metrics()
	if !waitUntil(5*time.Second, func() bool { return met.WireFrames.Load() == batches }) {
		t.Fatalf("server consumed %d frames, want %d", met.WireFrames.Load(), batches)
	}
	if gaps := met.WireSeqGaps.Load(); gaps != 0 {
		t.Fatalf("zero-loss drain still booked %d gaps", gaps)
	}
	if dups := met.WireDups.Load(); dups != 0 {
		t.Fatalf("in-order WAL drain produced %d dups (ordering broken)", dups)
	}
}

// TestResilientMaxSpillBytes pins the byte bound: a queue within the
// entry cap still evicts (oldest first) once the encoded bytes exceed
// MaxSpillBytes, and the spill_bytes gauge tracks the queue exactly.
func TestResilientMaxSpillBytes(t *testing.T) {
	fc := faults.NewFakeClock()
	dial := func() (net.Conn, error) { return nil, errors.New("down") }
	met := NewMetrics()
	c := NewResilientClient(dial, ResilientOptions{
		BackoffBase:   time.Minute, // park the writer on the fake clock
		MaxSpill:      1024,
		MaxSpillBytes: 256,
		Clock:         fc,
	})
	defer c.Close()
	c.SetMetrics(met)

	// ~37-byte frames: the byte bound admits a handful, nowhere near the
	// 1024-entry cap.
	big := []trace.Fragment{frag(0, 0, 500), frag(0, 600, 400)}
	for i := 0; i < 20; i++ {
		c.Consume(0, big)
	}
	st := c.Stats()
	if st.SpillBytes > 256 {
		t.Fatalf("spill bytes %d exceed the 256-byte bound", st.SpillBytes)
	}
	if st.Lost == 0 {
		t.Fatal("byte-bound overflow evicted nothing")
	}
	if st.Lost+uint64(st.SpillDepth) != 20 {
		t.Fatalf("lost %d + queued %d != consumed 20", st.Lost, st.SpillDepth)
	}
	if g := met.NetSpillBytes.Load(); g != st.SpillBytes {
		t.Fatalf("spill_bytes gauge %d != actual %d", g, st.SpillBytes)
	}
}

// TestResilientWALRestartReplay pins crash-safe client replay: a client
// dies with frames persisted in its WAL; the next generation (same WAL
// dir) replays them with their original sequence numbers before its own
// seq-0 restart, so the server delivers everything exactly once and
// books zero gaps.
func TestResilientWALRestartReplay(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2, DefaultOptions())
	srv := ServeWire(ln, pool)
	defer srv.Close()

	dir := t.TempDir()
	var up atomic.Bool
	dial := func() (net.Conn, error) {
		if !up.Load() {
			return nil, errors.New("collector down")
		}
		return net.Dial("tcp", ln.Addr().String())
	}

	// Generation 1: collector unreachable the whole time; Close persists
	// the backlog (memory queue + WAL) to disk.
	log1 := openTestWAL(t, dir, wal.Options{})
	c1 := NewResilientClient(dial, ResilientOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		MaxSpill:    2,
		WAL:         log1,
	})
	const gen1 = 10
	for i := 0; i < gen1; i++ {
		c1.Consume(i%2, []trace.Fragment{frag(i%2, int64(i)*1000, 500)})
	}
	c1.Close()
	st1 := c1.Stats()
	if st1.Sent != 0 || st1.Lost != 0 {
		t.Fatalf("gen1 sent=%d lost=%d, want 0/0", st1.Sent, st1.Lost)
	}
	// Everything consumed is either durable or the abandoned pre-WAL
	// head (the frame that was mid-write when the queue migrated).
	if st1.WALPending+int(st1.Abandoned) != gen1 {
		t.Fatalf("gen1 walPending=%d abandoned=%d, want sum %d", st1.WALPending, st1.Abandoned, gen1)
	}

	// Generation 2: reopen the same dir; the leftovers replay first,
	// then this generation's own frames (fresh numbering from seq 0 —
	// the server's restart branch).
	up.Store(true)
	log2 := openTestWAL(t, dir, wal.Options{})
	if log2.Pending() != st1.WALPending {
		t.Fatalf("reopen found %d pending, want %d", log2.Pending(), st1.WALPending)
	}
	c2 := NewResilientClient(dial, ResilientOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		MaxSpill:    2,
		WAL:         log2,
	})
	defer c2.Close()
	const gen2 = 6
	for i := 0; i < gen2; i++ {
		c2.Consume(i%2, []trace.Fragment{frag(i%2, int64(100+i)*1000, 500)})
	}
	if !c2.Drain(10 * time.Second) {
		t.Fatalf("gen2 drain never finished: %+v", c2.Stats())
	}

	wantDelivered := uint64(st1.WALPending + gen2)
	met := srv.Metrics()
	if !waitUntil(5*time.Second, func() bool {
		return met.WireFrames.Load()+met.WireSeqGaps.Load() >= wantDelivered
	}) {
		t.Fatalf("server frames=%d gaps=%d, want total %d",
			met.WireFrames.Load(), met.WireSeqGaps.Load(), wantDelivered)
	}
	// The abandoned pre-WAL heads surface as gaps once later frames for
	// their ranks arrive; nothing else may be lost or duplicated.
	if gaps := met.WireSeqGaps.Load(); gaps != st1.Abandoned {
		t.Fatalf("gaps=%d, want exactly the %d abandoned heads", gaps, st1.Abandoned)
	}
	if met.WireFrames.Load() != wantDelivered {
		t.Fatalf("delivered %d frames, want %d", met.WireFrames.Load(), wantDelivered)
	}
	// gen2's fresh numbering restarts at 0: a restart, not a duplicate.
	if dups := met.WireDups.Load(); dups != 0 {
		t.Fatalf("dups=%d: gen2's fresh numbering was taken for retransmits", dups)
	}
}

// TestResilientWALDiskFullDegrades pins the degradation contract: when
// the disk refuses appends, the client falls back to the memory-only
// bounded spill — flushes keep succeeding, losses are booked exactly,
// and frames already on disk still drain in order.
func TestResilientWALDiskFullDegrades(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(1, DefaultOptions())
	srv := ServeWire(ln, pool)
	defer srv.Close()

	var up atomic.Bool
	dial := func() (net.Conn, error) {
		if !up.Load() {
			return nil, errors.New("collector down")
		}
		return net.Dial("tcp", ln.Addr().String())
	}
	var full atomic.Bool
	log := openTestWAL(t, t.TempDir(), wal.Options{
		WriteErr: func() error {
			if full.Load() {
				return faults.ErrInjected
			}
			return nil
		},
	})
	c := NewResilientClient(dial, ResilientOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		MaxSpill:    3,
		WAL:         log,
	})
	defer c.Close()

	// Phase 1: disk healthy; overflow reaches the WAL.
	for i := 0; i < 10; i++ {
		c.Consume(0, []trace.Fragment{frag(0, int64(i)*1000, 500)})
	}
	onDisk := c.Stats().WALPending
	if onDisk == 0 {
		t.Fatal("phase 1 never spilled to disk")
	}
	// Phase 2: disk full; the client must degrade to bounded memory
	// spill without erroring a single flush.
	full.Store(true)
	for i := 10; i < 30; i++ {
		c.Consume(0, []trace.Fragment{frag(0, int64(i)*1000, 500)})
	}
	st := c.Stats()
	if !st.WALBroken {
		t.Fatal("client never marked the WAL broken")
	}
	if st.Lost == 0 {
		t.Fatal("degraded overflow booked no losses")
	}
	if st.SpillDepth > 3 {
		t.Fatalf("degraded queue exceeded its bound: %d", st.SpillDepth)
	}
	if st.WALPending != onDisk {
		t.Fatalf("broken disk changed WAL pending: %d -> %d", onDisk, st.WALPending)
	}

	// Recovery: what reached the disk before it filled still drains.
	up.Store(true)
	if !c.Drain(10 * time.Second) {
		t.Fatalf("drain never finished: %+v", c.Stats())
	}
	st = c.Stats()
	if st.Sent+st.Lost != 30 {
		t.Fatalf("sent %d + lost %d != consumed 30", st.Sent, st.Lost)
	}
	met := srv.Metrics()
	if !waitUntil(5*time.Second, func() bool { return met.WireFrames.Load() == uint64(st.Sent) }) {
		t.Fatalf("server frames=%d, want %d", met.WireFrames.Load(), st.Sent)
	}
	if dups := met.WireDups.Load(); dups != 0 {
		t.Fatalf("degraded drain reordered frames: %d dups", dups)
	}
}

// TestResilientWALRetentionBooksLoss pins exact accounting under the
// WAL's own size cap: frames reclaimed from the log before delivery are
// booked per-rank lost by the client, and surface server-side as gaps.
func TestResilientWALRetentionBooksLoss(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2, DefaultOptions())
	srv := ServeWire(ln, pool)
	defer srv.Close()

	var up atomic.Bool
	dial := func() (net.Conn, error) {
		if !up.Load() {
			return nil, errors.New("collector down")
		}
		return net.Dial("tcp", ln.Addr().String())
	}
	log := openTestWAL(t, t.TempDir(), wal.Options{
		SegmentBytes: 128,
		MaxBytes:     512,
	})
	c := NewResilientClient(dial, ResilientOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		MaxSpill:    2,
		WAL:         log,
	})
	defer c.Close()

	const batches = 60
	for i := 0; i < batches; i++ {
		c.Consume(i%2, []trace.Fragment{frag(i%2, int64(i)*1000, 500)})
	}
	st := c.Stats()
	if st.Lost == 0 {
		t.Fatal("retention under the byte cap reclaimed nothing")
	}
	if st.LostByRank[0]+st.LostByRank[1] != st.Lost {
		t.Fatalf("retention losses not booked per rank: %+v", st.LostByRank)
	}

	up.Store(true)
	if !c.Drain(10 * time.Second) {
		t.Fatalf("drain never finished: %+v", c.Stats())
	}
	st = c.Stats()
	if st.Sent+st.Lost != batches {
		t.Fatalf("sent %d + lost %d != consumed %d", st.Sent, st.Lost, batches)
	}
	// Server-side: delivered + gaps covers every consumed batch.
	met := srv.Metrics()
	if !waitUntil(5*time.Second, func() bool {
		return met.WireFrames.Load()+met.WireSeqGaps.Load() == batches
	}) {
		t.Fatalf("frames=%d gaps=%d, want sum %d",
			met.WireFrames.Load(), met.WireSeqGaps.Load(), batches)
	}
}
