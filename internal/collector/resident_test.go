package collector

import (
	"math/rand"
	"runtime"
	"testing"

	"vapro/internal/sim"
	"vapro/internal/trace"
)

// benchFragment draws one fragment of the end-to-end benchmark's two
// populations (bench/workload.go nextFragment): computation — 31/32
// computation fragments over 8 edges × 5 TOT_INS classes, 1/32
// Allreduce — or comm/IO — 5/8 communication with 4-field arguments,
// 2/8 IO, 1/8 computation.
func benchFragment(rng *rand.Rand, commIO bool, rank int, clock int64) trace.Fragment {
	f := trace.Fragment{Rank: rank, Start: clock, Elapsed: int64(900_000 + rng.Intn(200_000))}
	comp := func() {
		e := rng.Intn(8)
		f.Kind = trace.Comp
		f.From, f.State = uint64(e+1), uint64(e+2)
		f.Counters = trace.CountersView{TotIns: uint64(1+rng.Intn(5))*1_000_000 + uint64(rng.Intn(1000))}
	}
	if !commIO {
		if rng.Intn(32) == 0 {
			f.Kind = trace.Comm
			f.State = uint64(1000 + rng.Intn(8))
			f.Args = trace.Args{Op: trace.OpAllreduce, Bytes: 4096}
		} else {
			comp()
		}
		return f
	}
	switch r := rng.Intn(8); {
	case r < 5:
		st := rng.Intn(8)
		f.Kind = trace.Comm
		f.State = uint64(1000 + st)
		f.Args = trace.Args{Op: trace.OpAllreduce, Bytes: 1 << uint(10+rng.Intn(4)), Peer: -1, Tag: st}
	case r < 7:
		st := rng.Intn(4)
		f.Kind = trace.IO
		f.State = uint64(2000 + st)
		f.Args = trace.Args{Op: trace.OpWrite, Bytes: 1 << uint(12+rng.Intn(3)), FD: 3 + st}
	default:
		comp()
	}
	return f
}

// TestResidentBytesPerFragmentBudget is the absolute memory budget of a
// monitored pool: over 200 k fragments of each benchmark population —
// 64 ranks flushing 256 fragments at a time through NewPool+NewMonitor,
// windows closing as they go — the live heap the server keeps per
// fragment stays inside a fixed number of bytes. The columnar log is
// ≈ 30 B of it; the rest is the analysis planes' per-fragment state,
// none of which restates the log. The cluster cache keeps a 4-byte
// order entry and a 4-byte Assign entry, plus an 8-byte norm on the
// multi-D path (a 1-D norm is TOT_INS, read back through a table of the
// log's lanes); a cluster lists no members, Assign is its membership. The sample store keeps one
// 4-byte span-index position: it reads the cluster of a fragment from
// the cache's Assign, and its span and rank from the log. A multi-D
// workload vector is not kept either: it is read back from the log's
// lanes. Measured 45.1 B (computation) and 53.5 B (comm/IO); each
// budget is 5 % above.
// TestMonitorSingleResidentCopy is the relative bound beside it.
func TestResidentBytesPerFragmentBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 2 × 213 k fragments")
	}
	const ranks, per, rounds = 64, 256, 13
	for _, tc := range []struct {
		name   string
		commIO bool
		budget float64
	}{
		{"computation", false, 47.3},
		{"commio", true, 56.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			copt := DefaultOptions()
			copt.Period = 500 * sim.Millisecond
			copt.Overlap = 250 * sim.Millisecond
			copt.Detect.Window = 100 * sim.Millisecond
			mopt := DefaultMonitorOptions(ranks)

			base := liveHeap()
			pool := NewPool(ranks, copt)
			mon := NewMonitor(pool, mopt)
			rng := rand.New(rand.NewSource(7))
			clocks := make([]int64, ranks)
			buf := make([]trace.Fragment, per)
			for round := 0; round < rounds; round++ {
				for rank := 0; rank < ranks; rank++ {
					for i := range buf {
						buf[i] = benchFragment(rng, tc.commIO, rank, clocks[rank])
						clocks[rank] += buf[i].Elapsed
					}
					mon.Consume(rank, buf)
				}
			}
			resident := liveHeap() - base
			frags := pool.FragmentCount()
			windows := pool.Metrics().Detect.Windows.Load()
			logBytes := pool.Plane(0).graph.LogStats().Bytes()
			runtime.KeepAlive(mon)
			pool.Close()
			if frags < 200_000 || windows < 5 {
				t.Fatalf("%d fragments, %d windows: the budget needs a loaded, ticking server", frags, windows)
			}
			perFrag := float64(resident) / float64(frags)
			t.Logf("%d fragments, %d windows: %.1f MB live, %.0f B per fragment (log %.1f)",
				frags, windows, float64(resident)/1e6, perFrag, float64(logBytes)/float64(frags))
			if perFrag > tc.budget {
				t.Fatalf("a resident fragment costs %.0f B of live heap, budget %.1f", perFrag, tc.budget)
			}
		})
	}
}

// TestWarmConsumeAllocatesNothing: once a server has a recycled staging
// buffer that fits and the element's chunk has room, delivering a batch
// — stage, drain, AddBatch into columns — allocates nothing.
func TestWarmConsumeAllocatesNothing(t *testing.T) {
	p := NewPool(4, DefaultOptions())
	defer p.Close()
	batch := make([]trace.Fragment, 8)
	var clock int64
	fill := func() {
		for i := range batch {
			batch[i] = trace.Fragment{
				Rank: 1, Kind: trace.Comp, From: 1, State: 2, Start: clock, Elapsed: 1000,
				Counters: trace.CountersView{TotIns: uint64(1_000_000 + clock%977)},
			}
			clock += 1000
		}
	}
	// Warm: the first batches allocate the chunk, its TOT_INS lane, the
	// staging buffer, the staged list's slot and the drain scratch.
	for i := 0; i < 3; i++ {
		fill()
		p.ConsumeSized(1, batch, 100)
	}
	const runs = 100
	if (3+runs+1)*len(batch) >= trace.LogChunkRows {
		t.Fatal("test would cross a chunk boundary")
	}
	allocs := testing.AllocsPerRun(runs, func() {
		fill()
		p.ConsumeSized(1, batch, 100)
	})
	if allocs != 0 {
		t.Fatalf("warm ConsumeSized allocates %.0f times per batch", allocs)
	}
	if n := p.FragmentCount(); n != (3+runs+1)*len(batch) {
		t.Fatalf("%d fragments resident", n)
	}
}
