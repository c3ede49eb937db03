package collector

import (
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"vapro/internal/sim"
	"vapro/internal/trace"
)

// TestWatermarkMatchesMapScan: on random in-range schedules — lockstep
// ties, empty batches, ranks that report late, time running backwards
// inside a batch — the cached dense watermark answers exactly what the
// old full map scan answered after every single batch.
func TestWatermarkMatchesMapScan(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ranks := 1 + rng.Intn(12)
		w := newWatermark(ranks)
		ref := map[int]sim.Time{}
		clocks := make([]int64, ranks)
		for step := 0; step < 300; step++ {
			rank := rng.Intn(ranks)
			if seed%3 == 0 && step < 100 {
				rank = rng.Intn((ranks + 1) / 2) // half the ranks report late
			}
			frags := make([]trace.Fragment, rng.Intn(4))
			for i := range frags {
				el := int64(rng.Intn(3)) * 1000 // zero-length and tied ends
				frags[i] = trace.Fragment{Rank: rank, Start: clocks[rank], Elapsed: el}
				clocks[rank] += el
				if rng.Intn(10) == 0 {
					clocks[rank] -= 500 // out-of-order client buffer
				}
			}
			w.observe(rank, frags)
			high := ref[rank]
			var top sim.Time
			for i := range frags {
				if e := sim.Time(frags[i].End()); e > high {
					high = e
				}
			}
			ref[rank] = high
			for _, h := range ref {
				if h > top {
					top = h
				}
			}
			if got, want := w.low(), mapWatermark(ref, ranks); got != want {
				t.Fatalf("seed=%d step=%d: low() = %d, map scan = %d", seed, step, got, want)
			}
			if w.high() != top {
				t.Fatalf("seed=%d step=%d: high() = %d, map scan = %d", seed, step, w.high(), top)
			}
		}
	}
}

// TestWatermarkIgnoresStrayRanks: ids outside [0, ranks) neither
// complete the quorum nor join the minimum nor grow the table.
func TestWatermarkIgnoresStrayRanks(t *testing.T) {
	at := func(rank int, end int64) []trace.Fragment {
		return []trace.Fragment{{Rank: rank, Start: 0, Elapsed: end}}
	}
	w := newWatermark(3)
	w.observe(0, at(0, 100))
	w.observe(1, at(1, 200))
	for _, stray := range []int{3, -1, 1 << 40} {
		w.observe(stray, at(stray, 5))
	}
	if w.low() != 0 {
		t.Fatalf("stray ranks completed the quorum: low() = %d with rank 2 silent", w.low())
	}
	if len(w.marks) != 3 {
		t.Fatalf("stray ranks grew the table to %d", len(w.marks))
	}
	w.observe(2, at(2, 300))
	if w.low() != 100 || w.high() != 300 {
		t.Fatalf("low/high = %d/%d, want 100/300 (stray marks must not join)", w.low(), w.high())
	}
}

// TestMonitorStrayRankDoesNotCloseWindows is the bug at the monitor's
// surface: with 3 of 4 ranks reporting, a batch from an unprovisioned
// rank id used to count as the fourth and close windows early. Its
// fragments are still stored.
func TestMonitorStrayRankDoesNotCloseWindows(t *testing.T) {
	copt, mopt := monOpts()
	pool := NewPool(4, copt)
	m := NewMonitor(pool, mopt)
	feed := func(rank int) {
		var batch []trace.Fragment
		for tm := int64(0); tm < 100_000_000; tm += 1_000_000 {
			batch = append(batch, monFrag(rank, tm, 1_000_000, false))
		}
		m.Consume(rank, batch)
	}
	for _, rank := range []int{0, 1, 2, 7} {
		feed(rank)
	}
	if n := pool.Metrics().Detect.Windows.Load(); n != 0 {
		t.Fatalf("%d windows analyzed with rank 3 silent (stray rank 7 counted toward the quorum)", n)
	}
	if got := pool.FragmentCount(); got != 400 {
		t.Fatalf("%d fragments stored, want 400 (the stray rank's included)", got)
	}
	feed(3)
	if pool.Metrics().Detect.Windows.Load() == 0 {
		t.Fatal("no window closed once every provisioned rank had reported")
	}
}

// TestWireRejectsOutOfRangeRank: a frame whose rank does not fit an
// int32 is a decode error — counted as a rejected frame on a connection
// that dies cleanly — not a negative index caught by recover().
func TestWireRejectsOutOfRangeRank(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2, DefaultOptions())
	srv := ServeWire(ln, pool)
	defer srv.Close()

	payload := []byte{'V', 1}
	payload = binary.AppendUvarint(payload, 1<<63) // rank: negative as an int
	payload = binary.AppendUvarint(payload, 0)     // fragments
	payload = binary.AppendUvarint(payload, 0)     // keys
	frame := append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	met := srv.Metrics()
	waitUntil(5*time.Second, func() bool { return met.WireFramesRejected.Load() >= 1 })
	rejected, decodeErrs, panics, frames := met.WireFramesRejected.Load(), met.WireDecodeErrors.Load(), met.WirePanics.Load(), met.WireFrames.Load()
	if rejected != 1 || decodeErrs != 1 || panics != 0 || frames != 0 {
		t.Fatalf("rejected=%d decodeErrors=%d panics=%d frames=%d, want 1/1/0/0",
			rejected, decodeErrs, panics, frames)
	}
}
