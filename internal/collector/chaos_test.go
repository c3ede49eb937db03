package collector

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"vapro/internal/detect"
	"vapro/internal/stg"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// listenRetry rebinds addr, retrying briefly: the kernel can lag a few
// milliseconds releasing a just-closed listening port.
func listenRetry(t *testing.T, addr string) net.Listener {
	t.Helper()
	var lastErr error
	for i := 0; i < 200; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("could not rebind %s: %v", addr, lastErr)
	return nil
}

// allFragments flattens a graph into one slice.
func allFragments(g *stg.Graph) []trace.Fragment {
	var out []trace.Fragment
	for _, e := range g.Edges() {
		out = append(out, e.Log().Slice()...)
	}
	for _, v := range g.Vertices() {
		out = append(out, v.Log().Slice()...)
	}
	return out
}

// sortFragments orders fragments canonically so two multisets compare
// (and feed the analysis) independent of arrival interleaving.
func sortFragments(fs []trace.Fragment) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := &fs[i], &fs[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return fmt.Sprintf("%+v", a) < fmt.Sprintf("%+v", b)
	})
}

// TestChaosSoakServerRestarts is the fault-tolerance soak: four ranks
// push batches through resilient clients while the wire server is
// killed and restarted five times under load. It asserts the plane's
// core guarantees:
//
//   - no deadlock (the test completes),
//   - bounded memory (spill never exceeds its configured cap),
//   - exact loss accounting (every consumed batch is either delivered
//     or counted in a sequence gap: consumed == delivered + gaps),
//   - the analysis over the delivered subset is bit-identical however
//     that subset is viewed (live pool graph vs its delivery journal
//     replayed into a fresh pool).
func TestChaosSoakServerRestarts(t *testing.T) {
	const ranks = 4
	const maxSpill = 8
	pool := NewPool(ranks, DefaultOptions())
	jlog := openTestWAL(t, t.TempDir(), wal.Options{SegmentBytes: 1 << 20})
	defer jlog.Close()
	pool.AttachJournal(jlog)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := ServeWire(ln, pool)
	srv.SetDrainTimeout(20 * time.Millisecond)
	met := pool.Metrics()

	clients := make([]*ResilientClient, ranks)
	for r := range clients {
		clients[r] = NewResilientClient(
			func() (net.Conn, error) { return net.Dial("tcp", addr) },
			ResilientOptions{
				BackoffBase: 500 * time.Microsecond,
				BackoffMax:  5 * time.Millisecond,
				MaxSpill:    maxSpill,
			})
		clients[r].SetMetrics(met)
		defer clients[r].Close()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				clients[rank].Consume(rank, []trace.Fragment{frag(rank, int64(n)*1000, 500)})
				time.Sleep(200 * time.Microsecond)
			}
		}(r)
	}

	// Five kill/restart cycles under sustained load, with a real outage
	// window between kill and rebind so spill queues overflow.
	for i := 0; i < 5; i++ {
		time.Sleep(25 * time.Millisecond)
		if err := srv.Close(); err != nil {
			t.Fatalf("restart %d: close: %v", i+1, err)
		}
		time.Sleep(30 * time.Millisecond)
		ln = listenRetry(t, addr)
		srv = ServeWire(ln, pool)
		srv.SetDrainTimeout(20 * time.Millisecond)
	}
	time.Sleep(25 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Graceful tail: drain every client, then send one sentinel batch
	// per rank so the server sees a frame past any lost sequence
	// numbers — that is what realizes trailing losses as gaps.
	for r, c := range clients {
		if !c.Drain(10 * time.Second) {
			t.Fatalf("rank %d never drained: %+v", r, c.Stats())
		}
		c.Consume(r, []trace.Fragment{frag(r, 1<<40, 500)})
		if !c.Drain(10 * time.Second) {
			t.Fatalf("rank %d sentinel never drained", r)
		}
	}

	var consumed, lost, reconnects uint64
	for r, c := range clients {
		st := c.Stats()
		consumed += st.Consumed
		lost += st.Lost
		reconnects += st.Reconnects
		if st.Abandoned != 0 {
			t.Fatalf("rank %d abandoned %d batches after a clean drain", r, st.Abandoned)
		}
		if st.SpillPeak > maxSpill {
			t.Fatalf("rank %d spill peak %d exceeds cap %d", r, st.SpillPeak, maxSpill)
		}
	}
	if reconnects < 5 {
		t.Fatalf("reconnects = %d across 5 server restarts, want >= 5", reconnects)
	}
	if lost == 0 {
		t.Fatal("soak produced no spill evictions; outage windows too short to exercise loss")
	}

	// Exact loss accounting: consumed == delivered + gaps, where
	// delivered and gaps live in the pool's surface and therefore
	// survived all five server instances. Delivery of the sentinels can
	// trail the drain by a beat, so poll for balance.
	balanced := func() bool {
		return consumed == met.WireFrames.Load()+met.WireSeqGaps.Load()
	}
	if !waitUntil(10*time.Second, balanced) {
		t.Fatalf("books never balanced: consumed %d != delivered %d + gaps %d (dups %d)",
			consumed, met.WireFrames.Load(), met.WireSeqGaps.Load(), met.WireDups.Load())
	}
	if gaps := met.WireSeqGaps.Load(); gaps < lost {
		t.Fatalf("server saw %d gap frames, client evicted %d — gaps must cover every eviction", gaps, lost)
	}
	srv.Close()

	// The delivered subset is one well-defined data set: the live
	// pool's merged graph and the journal replayed into a fresh pool
	// hold the same fragment multiset...
	replayed := NewPool(ranks, DefaultOptions())
	frames, err := ReplayJournal(jlog, replayed)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if want := met.WireFrames.Load(); uint64(frames) != want {
		t.Fatalf("replayed %d frames, the live server delivered %d", frames, want)
	}
	poolFrags := allFragments(pool.Graph())
	recFrags := allFragments(replayed.Graph())
	sortFragments(poolFrags)
	sortFragments(recFrags)
	if len(poolFrags) != len(recFrags) {
		t.Fatalf("pool holds %d fragments, replay %d", len(poolFrags), len(recFrags))
	}
	for i := range poolFrags {
		if poolFrags[i] != recFrags[i] {
			t.Fatalf("fragment %d differs between pool and replay:\n %+v\n %+v",
				i, poolFrags[i], recFrags[i])
		}
	}

	// ...and analyzing it is deterministic: two independent passes over
	// canonically ordered copies produce bit-identical heat maps.
	opt := detect.DefaultOptions()
	run := func(fs []trace.Fragment) *detect.Result {
		g := stg.New()
		g.AddBatch(fs)
		return detect.Run(g, ranks, opt)
	}
	res1, res2 := run(poolFrags), run(recFrags)
	if len(res1.Maps) != len(res2.Maps) {
		t.Fatalf("map count differs: %d vs %d", len(res1.Maps), len(res2.Maps))
	}
	for class, h1 := range res1.Maps {
		h2 := res2.Maps[class]
		if h2 == nil || len(h1.Cells) != len(h2.Cells) {
			t.Fatalf("class %v maps differ in shape", class)
		}
		for i := range h1.Cells {
			v1, v2 := h1.Cells[i], h2.Cells[i]
			if v1 != v2 && !(v1 != v1 && v2 != v2) { // NaN == NaN for our purposes
				t.Fatalf("class %v cell %d: %v vs %v", class, i, v1, v2)
			}
		}
	}
}
