package collector

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vapro/internal/faults"
	"vapro/internal/trace"
)

// waitUntil polls cond every millisecond until it holds or the deadline
// passes; tests assert on the returned bool instead of sleeping fixed
// wall-clock amounts.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResilientBackoffSchedule pins the reconnect schedule against the
// fake clock: base 50ms doubling to the 150ms cap, with Rand pinned to
// 0.5 so the ±20% jitter term is exactly zero. No real sleeps.
func TestResilientBackoffSchedule(t *testing.T) {
	fc := faults.NewFakeClock()
	dialErr := errors.New("collector down")
	dial := faults.FlakyDialer(4, dialErr, func() (net.Conn, error) {
		cli, srv := net.Pipe()
		go func() { // drain so the frame write completes
			buf := make([]byte, 1024)
			for {
				if _, err := srv.Read(buf); err != nil {
					return
				}
			}
		}()
		return cli, nil
	})
	c := NewResilientClient(dial, ResilientOptions{
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  150 * time.Millisecond,
		Jitter:      0.2,
		Clock:       fc,
		Rand:        func() float64 { return 0.5 },
	})
	defer c.Close()

	c.Consume(0, []trace.Fragment{frag(0, 0, 500)})
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond,
		150 * time.Millisecond, 150 * time.Millisecond}
	for i, d := range want {
		if !fc.BlockUntilWaiters(1, 2*time.Second) {
			t.Fatalf("attempt %d: writer never backed off", i+1)
		}
		got := fc.Requested()
		if got[len(got)-1] != d {
			t.Fatalf("backoff %d = %v, want %v (full schedule %v)", i+1, got[len(got)-1], d, got)
		}
		fc.Advance(d)
	}
	if !waitUntil(2*time.Second, func() bool { return c.Stats().Sent == 1 }) {
		t.Fatalf("frame never sent after dial recovered: %+v", c.Stats())
	}
	st := c.Stats()
	if st.Dials != 5 || st.Connects != 1 || st.Reconnects != 0 {
		t.Fatalf("dials=%d connects=%d reconnects=%d, want 5/1/0", st.Dials, st.Connects, st.Reconnects)
	}
}

// TestResilientSpillEviction pins the bounded-queue policy: the oldest
// batch not currently being written is evicted first, losses are booked
// per rank, and once the link recovers the survivors are delivered
// while the evictions surface server-side as exactly-counted sequence
// gaps.
func TestResilientSpillEviction(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2, DefaultOptions())
	srv := ServeWire(ln, pool)
	defer srv.Close()

	fc := faults.NewFakeClock()
	var up atomic.Bool
	dialErr := errors.New("collector down")
	dial := func() (net.Conn, error) {
		if !up.Load() {
			return nil, dialErr
		}
		return net.Dial("tcp", ln.Addr().String())
	}
	c := NewResilientClient(dial, ResilientOptions{
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		MaxSpill:    3,
		Clock:       fc,
		Rand:        func() float64 { return 0.5 },
	})
	defer c.Close()

	// Batch 0 goes in flight (dial fails, writer parks on the clock);
	// its start time marks it.
	c.Consume(0, []trace.Fragment{frag(0, 0, 500)})
	if !fc.BlockUntilWaiters(1, 2*time.Second) {
		t.Fatal("writer never backed off")
	}
	// Fill the queue, then overflow it twice: batches 1 and 2 (the
	// oldest entries behind the in-flight head) must be the victims.
	for i := 1; i <= 4; i++ {
		c.Consume(0, []trace.Fragment{frag(0, int64(i)*1000, 500)})
	}
	st := c.Stats()
	if st.Lost != 2 || st.LostByRank[0] != 2 {
		t.Fatalf("lost=%d byRank=%v, want 2", st.Lost, st.LostByRank)
	}
	if st.SpillDepth != 3 || st.SpillPeak != 3 {
		t.Fatalf("spill depth=%d peak=%d, want 3/3", st.SpillDepth, st.SpillPeak)
	}

	// Link recovers: survivors 0, 3, 4 deliver; the server's tracker
	// books the two evictions as sequence gaps.
	up.Store(true)
	fc.Advance(time.Minute)
	if !waitUntil(5*time.Second, func() bool { return pool.FragmentCount() == 3 }) {
		t.Fatalf("survivors not delivered: %d fragments", pool.FragmentCount())
	}
	if got := pool.Metrics().WireSeqGaps.Load(); got != 2 {
		t.Fatalf("server gap frames = %d, want 2", got)
	}
	g := pool.Graph()
	starts := map[int64]bool{}
	for _, v := range g.Vertices() {
		for _, f := range v.Log().Slice() {
			starts[f.Start] = true
		}
	}
	for _, e := range g.Edges() {
		for _, f := range e.Log().Slice() {
			starts[f.Start] = true
		}
	}
	for _, want := range []int64{0, 3000, 4000} {
		if !starts[want] {
			t.Fatalf("surviving batch with start %d not delivered (got %v)", want, starts)
		}
	}
}

// TestResilientReconnectAcrossRestart: batches consumed across a full
// server restart either arrive or are accounted as sequence gaps —
// never silently vanish. (A batch written into the dying server's
// socket can "succeed" locally and still be lost; the sequence gap is
// how that loss stays exact.)
func TestResilientReconnectAcrossRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	pool := NewPool(1, DefaultOptions())
	srv := ServeWire(ln, pool)
	srv.SetDrainTimeout(100 * time.Millisecond)

	c := NewResilientClient(func() (net.Conn, error) { return net.Dial("tcp", addr) },
		ResilientOptions{BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	defer c.Close()

	c.Consume(0, []trace.Fragment{frag(0, 0, 500)})
	if !waitUntil(5*time.Second, func() bool { return pool.FragmentCount() == 1 }) {
		t.Fatal("first batch not delivered")
	}

	// Kill the server; the client spills (or loses into the dying
	// socket) while reconnect dials fail.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	c.Consume(0, []trace.Fragment{frag(0, 1000, 500)})
	c.Consume(0, []trace.Fragment{frag(0, 2000, 500)})

	// Restart on the same address; everything still queued must drain
	// and the books must balance: delivered + gaps == consumed.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := ServeWire(ln2, pool)
	srv2.SetDrainTimeout(100 * time.Millisecond)
	defer srv2.Close()
	// A sentinel batch after the restart guarantees the server sees a
	// frame past any lost sequence numbers, so every loss materializes
	// as a gap and the books can balance.
	c.Consume(0, []trace.Fragment{frag(0, 3000, 500)})
	met := pool.Metrics()
	balanced := func() bool {
		return uint64(pool.FragmentCount())+met.WireSeqGaps.Load() == 4
	}
	if !waitUntil(5*time.Second, balanced) {
		t.Fatalf("books never balanced: %d fragments + %d gaps != 4 consumed",
			pool.FragmentCount(), met.WireSeqGaps.Load())
	}
	if !c.Drain(5 * time.Second) {
		t.Fatal("client queue never drained")
	}
	st := c.Stats()
	if st.Lost != 0 || st.Abandoned != 0 {
		t.Fatalf("lost=%d abandoned=%d, want 0/0 (spill never overflowed)", st.Lost, st.Abandoned)
	}
	if st.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", st.Reconnects)
	}
	if got := pool.FragmentCount(); got < 2 {
		t.Fatalf("only %d fragments delivered, want >= 2", got)
	}
}

// TestSeqTrackerAccounting pins the tracker's state machine: in-order
// delivery, gap booking with outage intervals, duplicate suppression,
// and the seq-0 client-restart reset. The totals are the sums of
// Observe's decisions, which is what the delivery step books.
func TestSeqTrackerAccounting(t *testing.T) {
	tr := NewSeqTracker()
	var gaps, dups uint64
	observe := func(seq uint64, minStart, maxEnd int64) (bool, uint64) {
		deliver, gap := tr.Observe(3, seq, minStart, maxEnd)
		gaps += gap
		if !deliver {
			dups++
		}
		return deliver, gap
	}
	if deliver, gap := observe(0, 0, 1000); !deliver || gap != 0 {
		t.Fatalf("first batch: deliver=%v gap=%d", deliver, gap)
	}
	if deliver, gap := observe(1, 1000, 2000); !deliver || gap != 0 {
		t.Fatalf("in-order batch: deliver=%v gap=%d", deliver, gap)
	}
	// Batches 2,3,4 lost: seq 5 arrives with a gap of 3 covering
	// virtual time [2000 (rank high-water), 7000 (next batch start)).
	if deliver, gap := observe(5, 7000, 8000); !deliver || gap != 3 {
		t.Fatalf("gap batch: deliver=%v gap=%d", deliver, gap)
	}
	out := tr.Outages()
	if len(out) != 1 || out[0].Rank != 3 || out[0].Start != 2000 || out[0].End != 7000 {
		t.Fatalf("outages = %+v", out)
	}
	// A retransmit of an already-delivered seq is suppressed.
	if deliver, _ := observe(5, 7000, 8000); deliver {
		t.Fatal("duplicate delivered")
	}
	if dups != 1 || gaps != 3 {
		t.Fatalf("dups=%d gaps=%d, want 1/3", dups, gaps)
	}
	// Seq 0 again: the client restarted; numbering resets with no gap
	// charged and no duplicate suppression.
	if deliver, gap := observe(0, 9000, 9500); !deliver || gap != 0 {
		t.Fatalf("restart batch: deliver=%v gap=%d", deliver, gap)
	}
	// The new generation numbers from 1 on: in order, not a gap.
	if deliver, gap := observe(1, 9500, 9900); !deliver || gap != 0 {
		t.Fatalf("post-restart batch: deliver=%v gap=%d", deliver, gap)
	}
	if dups != 1 || gaps != 3 {
		t.Fatalf("after restart dups=%d gaps=%d, want 1/3", dups, gaps)
	}
}

// TestPoolWindowResultsMarkStale: sequence gaps recorded by the pool's
// tracker must surface as stale cells in the per-window heat maps — a
// rank that went silent because its batches were lost is neither fast
// nor slow.
func TestPoolWindowResultsMarkStale(t *testing.T) {
	pool := NewPool(2, DefaultOptions())
	// Rank 1 delivered its first batch, then lost two batches covering
	// virtual time [1s, 20s).
	tr := pool.SeqState()
	tr.Observe(1, 0, 0, 1_000_000_000)
	_, gap := tr.Observe(1, 3, 20_000_000_000, 21_000_000_000)
	for i := 0; i < 20; i++ {
		pool.Consume(0, []trace.Fragment{frag(0, int64(i)*1_000_000_000, 100_000_000)})
		pool.Consume(1, []trace.Fragment{frag(1, int64(i)*1_000_000_000, 100_000_000)})
	}
	stale := false
	for _, wr := range pool.WindowResults() {
		for _, h := range wr.Result.Maps {
			for w := 0; w < h.Windows; w++ {
				if h.StaleAt(1, w) {
					stale = true
				}
				if h.StaleAt(0, w) {
					t.Fatal("rank 0 marked stale without any gap")
				}
			}
		}
	}
	if !stale {
		t.Fatal("no window marked rank 1 stale despite a recorded outage")
	}
	if out := tr.Outages(); gap != 2 || len(out) != 1 {
		t.Fatalf("gap=%d outages=%d, want 2/1", gap, len(out))
	}
}

// TestWireServerShutdownHungConn: a connection that sends half a frame
// and stalls used to leak its serveConn goroutine past Close forever;
// now the drain timeout force-closes it and Close returns.
func TestWireServerShutdownHungConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(1, DefaultOptions())
	srv := ServeWire(ln, pool)
	srv.SetDrainTimeout(50 * time.Millisecond)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame header claiming 100 payload bytes, then silence.
	if _, err := conn.Write([]byte{100, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Give the server a chance to enter the payload read.
	if !waitUntil(2*time.Second, func() bool { return srv.Metrics().WireConns.Load() == 1 }) {
		t.Fatal("connection never accepted")
	}

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on the hung connection")
	}
}
