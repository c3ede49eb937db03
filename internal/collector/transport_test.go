package collector

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"vapro/internal/sim"
	"vapro/internal/trace"
)

// writeFrames writes each payload as one wire frame (uvarint length,
// then the payload) in a single Write, and returns the bytes written.
func writeFrames(t *testing.T, w io.Writer, payloads ...[]byte) int {
	t.Helper()
	var out []byte
	for _, p := range payloads {
		out = binary.AppendUvarint(out, uint64(len(p)))
		out = append(out, p...)
	}
	n, err := w.Write(out)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWireTransportRoundTrip delivers unsequenced v1 frames
// (trace.AppendBatch) end to end: the decoder still reads every wire
// version, so a pre-sequence client's stream must land whole.
func TestWireTransportRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4, DefaultOptions())
	srv := ServeWire(ln, pool)

	// Four clients, one per rank, like the real library.
	wantBytes := int64(0)
	for rank := 0; rank < 4; rank++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var payloads [][]byte
		for i := 0; i < 5; i++ {
			batch := []trace.Fragment{frag(rank, int64(i)*1000, 500)}
			wantBytes += int64(trace.BatchWireSize(rank, batch))
			payloads = append(payloads, trace.AppendBatch(nil, rank, batch))
		}
		writeFrames(t, conn, payloads...)
		conn.Close()
	}

	// Wait for the server to drain.
	waitUntil(5*time.Second, func() bool { return pool.FragmentCount() >= 20 })
	srv.Close()

	if got := pool.FragmentCount(); got != 20 {
		t.Fatalf("server received %d fragments, want 20", got)
	}
	if srv.Batches() != 20 {
		t.Fatalf("batches: %d", srv.Batches())
	}
	if srv.Err() != nil {
		t.Fatalf("server error: %v", srv.Err())
	}
	// The wire path books the measured payload bytes (via ConsumeSized),
	// which must match what the clients encoded.
	if got := pool.Stats(sim.Second).BytesIn; got != wantBytes {
		t.Fatalf("BytesIn = %d, want %d (measured payload bytes)", got, wantBytes)
	}
}

// TestWireServerHostileFrame feeds the regression frame from the
// DecodeBatch overflow (a ~13-byte payload claiming 2^61+1 keys) plus
// an oversized frame header to a live server: both must surface as
// connection errors, never crash the process, and the server must keep
// serving well-formed clients afterwards.
func TestWireServerHostileFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(1, DefaultOptions())
	srv := ServeWire(ln, pool)

	// Hand-rolled hostile payload: magic 'V', version 1, rank 0,
	// count 0, nkeys 2^61+1.
	payload := []byte{'V', 1}
	payload = binary.AppendUvarint(payload, 0)
	payload = binary.AppendUvarint(payload, 0)
	payload = binary.AppendUvarint(payload, (1<<61)+1)
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = append(frame, payload...)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	if !waitUntil(5*time.Second, func() bool { return srv.Err() != nil }) {
		t.Fatal("hostile frame not rejected")
	}
	if got := pool.FragmentCount(); got != 0 {
		t.Fatalf("hostile frame delivered %d fragments", got)
	}

	// A frame header claiming more than maxFramePayload is cut off
	// before any allocation.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hdr := binary.AppendUvarint(nil, maxFramePayload+1)
	if _, err := conn2.Write(hdr); err != nil {
		t.Fatal(err)
	}
	conn2.Close()

	// A fragment whose end, Start+Elapsed, wraps int64 is undecodable.
	conn2b, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	wrap := frag(0, math.MaxInt64-100, 500)
	writeFrames(t, conn2b, trace.AppendBatch(nil, 0, []trace.Fragment{wrap}))
	conn2b.Close()

	// The server process survives: a well-formed client still lands.
	conn3, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	writeFrames(t, conn3, trace.AppendBatch(nil, 0, []trace.Fragment{frag(0, 0, 500)}))
	conn3.Close()
	waitUntil(5*time.Second, func() bool { return pool.FragmentCount() >= 1 })
	srv.Close()
	if got := pool.FragmentCount(); got != 1 {
		t.Fatalf("server stopped serving after hostile frames: %d fragments", got)
	}

	// The rejections are swallowed as connection kills by design, but
	// they must be counted: two undecodable payloads, one oversized
	// header, no contained panics.
	if got := srv.FramesRejected(); got != 3 {
		t.Fatalf("frames rejected: %d, want 3", got)
	}
	if got := srv.DecodeErrors(); got != 2 {
		t.Fatalf("decode errors: %d, want 2", got)
	}
	if got := srv.Panics(); got != 0 {
		t.Fatalf("panics: %d, want 0", got)
	}
	// The server counts into the sink's own surface, so the pool's
	// Stats see the wire rejections too.
	if srv.Metrics() != pool.Metrics() {
		t.Fatal("wire server must share the pool's metrics surface")
	}
	if got := pool.Stats(sim.Second).FramesRejected; got != 3 {
		t.Fatalf("pool stats FramesRejected: %d, want 3", got)
	}
	if got := srv.Metrics().WireFrames.Load(); got != 1 {
		t.Fatalf("accepted frames: %d, want 1", got)
	}
}

func TestWireFragmentFidelity(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(1, DefaultOptions())
	srv := ServeWire(ln, pool)

	want := trace.Fragment{
		Rank: 0, Kind: trace.Comm, From: 7, State: 9,
		Start: 123, Elapsed: 456,
		Counters: trace.CountersView{TotIns: 11, Cycles: 22, SlotsDRAM: 33, InvolCS: 44},
		Args:     trace.Args{Op: trace.Op("Send"), Bytes: 1024, Peer: 3, Tag: 5},
		Static:   true, Truth: 99,
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	writeFrames(t, conn, trace.AppendBatchSeq(nil, 0, 1, []trace.Fragment{want}))
	conn.Close()

	waitUntil(5*time.Second, func() bool { return pool.FragmentCount() >= 1 })
	srv.Close()

	g := pool.Graph()
	v := g.Vertex(9)
	if v == nil || v.Log().Len() != 1 {
		t.Fatal("fragment not delivered")
	}
	got := v.Log().Slice()[0]
	if got != want {
		t.Fatalf("fragment mutated in transit:\n got %+v\nwant %+v", got, want)
	}
}

// TestWireServerStaticHello pins the single-server bootstrap path:
// SetHello publishes a one-entry shard map, so a ShardDialer client
// (vapro feed) connects and delivers against a plain serve exactly as
// it would against the sharded tier.
func TestWireServerStaticHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4, DefaultOptions())
	srv := ServeWire(ln, pool)
	defer srv.Close()
	srv.SetHello(1, []string{ln.Addr().String()})

	met := NewMetrics()
	c := NewResilientClient(ShardDialer(2, []string{ln.Addr().String()}, met),
		ResilientOptions{MaxSpill: 16})
	c.SetMetrics(met)
	c.Consume(2, []trace.Fragment{frag(2, 0, 500)})
	if !c.Drain(5 * time.Second) {
		t.Fatal("client did not drain against a static-hello server")
	}
	waitUntil(5*time.Second, func() bool { return pool.FragmentCount() >= 1 })
	if got := pool.FragmentCount(); got != 1 {
		t.Fatalf("server received %d fragments, want 1", got)
	}
	c.Close()
}
