package collector

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"vapro/internal/detect"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// TestMergedViewDeltaEquivalenceFuzz pins the delta-append merged view
// under multi-server pools: random bursts land on 2-4 servers, and after
// every burst the pool's incremental RunWindow must match a cold batch
// analyzer run over the same view graph bit for bit, the view's content
// must stay the exact multiset union of the server graphs, and — the
// point of the whole exercise — warm cross-server elements must keep
// their generation epoch across refreshes, so the incremental analysis
// planes never go cold. Half the schedules flip the DisableDeltaView
// hatch mid-run, which must force a clean rebase on re-enable.
func TestMergedViewDeltaEquivalenceFuzz(t *testing.T) {
	schedules := 50
	if testing.Short() {
		schedules = 12
	}
	var advances, rebases atomic.Uint64
	t.Cleanup(func() {
		if advances.Load() == 0 {
			t.Errorf("no view cursor advances across %d schedules: delta-append path never ran", schedules)
		}
		if rebases.Load() == 0 {
			t.Errorf("no view epoch rebases across %d schedules: rebase path never ran", schedules)
		}
	})
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("sched%03d", sched), func(t *testing.T) {
			t.Parallel()
			runViewSchedule(t, int64(13400+sched), &advances, &rebases)
		})
	}
}

func runViewSchedule(t *testing.T, seed int64, advances, rebases *atomic.Uint64) {
	rng := rand.New(rand.NewSource(seed))
	ranks := 4 + rng.Intn(5)

	opt := DefaultOptions()
	opt.Servers = 2 + rng.Intn(3)
	opt.Period = 10 * sim.Millisecond
	opt.Overlap = 5 * sim.Millisecond
	opt.Detect.Window = sim.Duration(1+rng.Intn(3)) * sim.Millisecond
	opt.Detect.Cluster.MinFragments = 2 + rng.Intn(3)
	p := NewPool(ranks, opt)
	defer p.Close()
	defer func() {
		advances.Add(p.met.ViewCursorAdvances.Load())
		rebases.Add(p.met.ViewEpochRebases.Load())
	}()
	useHatch := seed%2 == 0

	clock := make([]int64, ranks)
	edges := []trace.EdgeKey{{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 1}}

	// Epochs of view elements observed after they went multi-server
	// (owned): in a hatch-free schedule they must never move again,
	// because servers only ever append.
	warmEdge := map[trace.EdgeKey]uint64{}
	warmVert := map[uint64]uint64{}

	bursts := 5 + rng.Intn(5)
	for b := 0; b < bursts; b++ {
		for rank := 0; rank < ranks; rank++ {
			n := 3 + rng.Intn(15)
			batch := make([]trace.Fragment, 0, n)
			for i := 0; i < n; i++ {
				el := int64(300_000 + rng.Intn(900_000))
				ek := edges[rng.Intn(len(edges))]
				f := trace.Fragment{
					Rank: rank, Kind: trace.Comp, From: ek.From, State: ek.To,
					Start: clock[rank], Elapsed: el,
					Counters: trace.CountersView{TotIns: uint64(1+rng.Intn(4)) * 200_000},
				}
				if rng.Intn(6) == 0 {
					f.Kind = trace.Comm
					f.From = 0
					f.State = uint64(10 + rng.Intn(2))
					f.Args = trace.Args{Op: trace.Op("Allreduce"), Bytes: 1 << uint(rng.Intn(8))}
				}
				clock[rank] += el
				batch = append(batch, f)
			}
			p.Consume(rank, batch)
		}

		hatched := useHatch && b == bursts/2
		if hatched {
			p.opt.DisableDeltaView = true
		}

		ws := int64(rng.Intn(10)) * 1_000_000
		we := ws + int64(5+rng.Intn(20))*1_000_000
		got := p.RunWindow(ws, we)

		// The batch reference runs over the very same view graph the pool
		// just analyzed, so the comparison isolates the analyzer planes
		// from the merge order (which is pinned by the multiset check).
		bopt := p.opt.Detect
		bopt.DisableIncremental = true
		bopt.Outages = p.seq.Outages()
		want := detect.NewAnalyzer().RunWindow(p.view.graph, p.ranks, bopt, ws, we)
		sameDetectResult(t, b, got, want)
		assertViewMatchesMerge(t, p, p.view.graph)

		if hatched {
			// The hatch rebases every changed element, so prior epoch
			// observations are void.
			warmEdge = map[trace.EdgeKey]uint64{}
			warmVert = map[uint64]uint64{}
			p.opt.DisableDeltaView = false
			continue
		}
		for k, elem := range p.view.edgeElems {
			if elem.log == nil {
				continue
			}
			ep := p.view.graph.Edge(k).Gen.Epoch
			if prev, ok := warmEdge[k]; ok && prev != ep {
				t.Fatalf("burst %d: warm edge %v epoch moved %d -> %d", b, k, prev, ep)
			}
			warmEdge[k] = ep
		}
		for k, elem := range p.view.vertElems {
			if elem.log == nil {
				continue
			}
			ep := p.view.graph.Vertex(k).Gen.Epoch
			if prev, ok := warmVert[k]; ok && prev != ep {
				t.Fatalf("burst %d: warm vertex %d epoch moved %d -> %d", b, k, prev, ep)
			}
			warmVert[k] = ep
		}
	}
}

// TestMergedViewSingleServerEpochs pins the 1-server fast path: the view
// aliases the server's own log (AliasEdge/AliasVertex), so element
// epochs survive however far the log grows — across chunk boundaries
// here, where a slice log used to reallocate and send every element
// back through the batch plane.
func TestMergedViewSingleServerEpochs(t *testing.T) {
	opt := DefaultOptions()
	opt.Servers = 1
	opt.Detect.Window = sim.Millisecond
	p := NewPool(2, opt)
	defer p.Close()

	var clock int64
	feed := func(n int) {
		batch := make([]trace.Fragment, 0, n)
		for i := 0; i < n; i++ {
			el := int64(400_000)
			batch = append(batch, trace.Fragment{
				Rank: 0, Kind: trace.Comp, From: 1, State: 2,
				Start: clock, Elapsed: el,
				Counters: trace.CountersView{TotIns: 500_000},
			})
			clock += el
		}
		p.Consume(0, batch)
	}

	key := trace.EdgeKey{From: 1, To: 2}
	feed(3)
	p.RunWindow(0, 50_000_000)
	ep := p.view.graph.Edge(key).Gen.Epoch
	var gen stg.Gen
	// Push the server's log across several chunk boundaries.
	for i := 0; i < 6; i++ {
		feed(trace.LogChunkRows*2/3 + 1)
		p.RunWindow(0, 50_000_000)
		e := p.view.graph.Edge(key)
		if e.Gen.Epoch != ep {
			t.Fatalf("grow %d: single-server edge epoch moved %d -> %d", i, ep, e.Gen.Epoch)
		}
		if !gen.Before(e.Gen) {
			t.Fatalf("grow %d: view generation went backwards", i)
		}
		gen = e.Gen
	}
	if p.met.ViewEpochRebases.Load() != 0 {
		t.Fatalf("single-server pool rebased %d times; want 0", p.met.ViewEpochRebases.Load())
	}
}
