package collector

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vapro/internal/faults"
	"vapro/internal/obs"
	"vapro/internal/trace"
)

// TestTracedJourneyDeterministic reconstructs one sampled batch's full
// journey under the fake clock: the client flushes while the collector
// is unreachable, spills through two backoff rounds, redials, and the
// batch then flows deliver→stage→drain→analyze. Every hop timestamp is
// pinned to the fault clock, so the spill/redial dwell (enqueue→write)
// is EXACTLY the backoff the schedule imposed — the trace surface
// measures the fault, not just notices it.
func TestTracedJourneyDeterministic(t *testing.T) {
	fc := faults.NewFakeClock()
	epoch := fc.Now().UnixNano()

	pool := NewPool(1, DefaultOptions())
	defer pool.Close()
	tr := pool.Metrics().Trace
	tr.SetNow(func() int64 { return fc.Now().UnixNano() })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWire(ln, pool)
	defer srv.Close()

	// The collector is down for the first two dials.
	var fails atomic.Int32
	fails.Store(2)
	dial := func() (net.Conn, error) {
		if fails.Add(-1) >= 0 {
			return nil, errors.New("collector down")
		}
		return net.Dial("tcp", ln.Addr().String())
	}
	c := NewResilientClient(dial, ResilientOptions{
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  200 * time.Millisecond,
		Jitter:      0.2,
		Clock:       fc,
		Rand:        func() float64 { return 0.5 }, // jitter term exactly zero
	})
	defer c.Close()
	c.SetMetrics(pool.Metrics())
	// In-process deployment shape: client and server share one tracer,
	// so a journey's client-side and server-side hops land in one ring.
	c.EnableTrace(7, tr)

	c.Consume(0, []trace.Fragment{frag(0, 0, 500)})

	// Seq 0 is an exemplar under every sampling interval. Flush and
	// enqueue stamp at the epoch, before any dial resolves.
	key := obs.TraceKey{ClientID: 7, Seq: 0}
	if !waitUntil(2*time.Second, func() bool {
		for _, j := range tr.Snapshot().Journeys {
			if j.Key == key && j.Hops[obs.HopEnqueue] != 0 {
				return true
			}
		}
		return false
	}) {
		t.Fatalf("flush/enqueue hops never stamped: %+v", tr.Snapshot().Journeys)
	}

	// Walk the writer through the two failed dials: 50ms, then 100ms.
	for i, d := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond} {
		if !fc.BlockUntilWaiters(1, 2*time.Second) {
			t.Fatalf("backoff %d: writer never slept", i+1)
		}
		fc.Advance(d)
	}
	// Third dial succeeds; the frame is written and delivered. The
	// server can stage the frame before the writer returns from Write
	// and stamps the write hop (under the same lock that counts it
	// sent), so wait for both sides.
	if !waitUntil(2*time.Second, func() bool {
		return pool.FragmentCount() == 1 && c.Stats().Sent == 1
	}) {
		t.Fatalf("batch never delivered: %+v", c.Stats())
	}
	// First analyzed tick closes the journey.
	if res := pool.WindowResults(); res == nil {
		t.Fatal("window analysis returned nothing")
	}

	snap := tr.Snapshot()
	if len(snap.Journeys) != 1 {
		t.Fatalf("journeys: %+v", snap.Journeys)
	}
	j := snap.Journeys[0]
	if j.Key != key || j.Rank != 0 {
		t.Fatalf("journey identity: %+v", j)
	}
	if j.FlushNS != epoch {
		t.Fatalf("flush ns %d, want epoch %d", j.FlushNS, epoch)
	}
	// Every hop reached, in pipeline order.
	for hop := 0; hop < obs.NumHops; hop++ {
		if j.Hops[hop] == 0 {
			t.Fatalf("hop %s unreached: %+v", obs.HopNames[hop], j.Hops)
		}
		if hop > 0 && j.Hops[hop] < j.Hops[hop-1] {
			t.Fatalf("hop %s precedes %s: %+v", obs.HopNames[hop], obs.HopNames[hop-1], j.Hops)
		}
	}
	// The spill/redial dwell is exactly the imposed backoff: 150ms.
	dwell := j.Hops[obs.HopWrite] - j.Hops[obs.HopEnqueue]
	if want := int64(150 * time.Millisecond); dwell != want {
		t.Fatalf("spill dwell %v, want %v", time.Duration(dwell), time.Duration(want))
	}
	// Client-side hops all carry the flush timestamp (epoch); server
	// hops stamp after the redial, i.e. 150ms later on the fault clock.
	if j.Hops[obs.HopFlush] != epoch || j.Hops[obs.HopEnqueue] != epoch {
		t.Fatalf("client hops drifted: %+v", j.Hops)
	}
	if j.Hops[obs.HopDeliver] != epoch+int64(150*time.Millisecond) {
		t.Fatalf("deliver hop %d, want %d", j.Hops[obs.HopDeliver], epoch+int64(150*time.Millisecond))
	}
	if got := j.SpanNS(); got != j.Hops[obs.HopAnalyze]-epoch {
		t.Fatalf("span %d", got)
	}
	// The trace metrics surface agrees: with one shared tracer the batch
	// passes the sampler twice (client flush, server deliver) but still
	// lands in a single journey.
	ms := pool.Metrics().Registry.Snapshot()
	if m := ms.Get("vapro_trace_sampled_total"); m == nil || m.Value != 2 {
		t.Fatalf("sampled counter: %+v", m)
	}
	if m := ms.Get("vapro_trace_journeys"); m == nil || m.Value != 1 {
		t.Fatalf("journeys gauge: %+v", m)
	}
}

// TestTracedWireDispatch pins the server-side gating: traced frames
// from a sampled sequence take the exemplar path, unsampled and
// untraced frames do not touch the journey ring, and a v2 client mixed
// into a traced deployment keeps working.
func TestTracedWireDispatch(t *testing.T) {
	pool := NewPool(2, DefaultOptions())
	defer pool.Close()
	tr := pool.Metrics().Trace

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWire(ln, pool)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(buf []byte) {
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	// The default sampler takes every 64th seq. seq 64: traced + sampled
	// → journey. seq 65: traced, unsampled.
	send(encodeFrameTraced(0, 64, 9, 111, []trace.Fragment{frag(0, 0, 100)}))
	send(encodeFrame(1, 64, []trace.Fragment{frag(1, 0, 100)})) // v2, sampled seq
	send(encodeFrameTraced(0, 65, 9, 222, []trace.Fragment{frag(0, 200, 100)}))

	if !waitUntil(2*time.Second, func() bool { return pool.FragmentCount() == 3 }) {
		t.Fatalf("frames not delivered: %d", pool.FragmentCount())
	}
	snap := tr.Snapshot()
	if len(snap.Journeys) != 1 {
		t.Fatalf("journeys: %+v", snap.Journeys)
	}
	j := snap.Journeys[0]
	if j.Key != (obs.TraceKey{ClientID: 9, Seq: 64}) || j.FlushNS != 111 {
		t.Fatalf("wrong exemplar: %+v", j)
	}
	if j.Hops[obs.HopDeliver] == 0 || j.Hops[obs.HopStage] == 0 {
		t.Fatalf("server hops missing: %+v", j.Hops)
	}
	// Only traced frames count into the sampler's totals: the v2 frame
	// with a sampled seq must not have been counted or sampled.
	if snap.Total != 2 || snap.Sampled != 1 {
		t.Fatalf("total=%d sampled=%d, want 2/1", snap.Total, snap.Sampled)
	}
}
