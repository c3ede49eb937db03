package collector

import (
	"fmt"
	"math/rand"
	"testing"

	"vapro/internal/detect"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// TestMergedViewDeltaEquivalenceFuzz pins the plane's analysis snapshot
// under random bursts: after every burst the pool's incremental
// RunWindow must match a cold batch analyzer run over the same snapshot
// bit for bit, the snapshot must alias exactly the graph's rows, and no
// element's generation epoch may ever move, because the graph only
// appends — so the incremental analysis planes never go cold. (The
// name is kept from when a plane re-joined several servers' graphs.)
func TestMergedViewDeltaEquivalenceFuzz(t *testing.T) {
	schedules := 50
	if testing.Short() {
		schedules = 12
	}
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("sched%03d", sched), func(t *testing.T) {
			t.Parallel()
			runViewSchedule(t, int64(13400+sched))
		})
	}
}

func runViewSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ranks := 4 + rng.Intn(5)

	opt := DefaultOptions()
	opt.Period = 10 * sim.Millisecond
	opt.Overlap = 5 * sim.Millisecond
	opt.Detect.Window = sim.Duration(1+rng.Intn(3)) * sim.Millisecond
	opt.Detect.Cluster.MinFragments = 2 + rng.Intn(3)
	p := NewPool(ranks, opt)
	defer p.Close()
	pl := p.Plane(0)

	clock := make([]int64, ranks)
	edges := []trace.EdgeKey{{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 1}}
	epochs := map[any]uint64{}
	checkEpoch := func(b int, k any, ep uint64) {
		if prev, ok := epochs[k]; ok && prev != ep {
			t.Fatalf("burst %d: element %v epoch moved %d -> %d", b, k, prev, ep)
		}
		epochs[k] = ep
	}

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

		ws := int64(rng.Intn(10)) * 1_000_000
		we := ws + int64(5+rng.Intn(20))*1_000_000
		got := p.RunWindow(ws, we)

		// The batch reference runs over the very snapshot the pool just
		// analyzed, so the comparison isolates the analyzer planes.
		bopt := p.opt.Detect
		bopt.DisableIncremental = true
		bopt.Outages = pl.seq.Outages()
		want := detect.NewAnalyzer().RunWindow(pl.view, p.ranks, bopt, ws, we)
		sameDetectResult(t, b, got, want)
		assertViewMatchesGraph(t, pl, pl.view)

		for _, e := range pl.view.Edges() {
			checkEpoch(b, e.Key, e.Gen.Epoch)
		}
		for _, v := range pl.view.Vertices() {
			checkEpoch(b, v.Key, v.Gen.Epoch)
		}
	}
}

// TestMergedViewSingleServerEpochs pins the snapshot's aliasing: it
// points at the graph's own log (AliasEdge/AliasVertex), so element
// epochs survive however far the log grows — across six chunk
// boundaries here, where a slice log used to reallocate and send every
// element back through the batch plane.
func TestMergedViewSingleServerEpochs(t *testing.T) {
	opt := DefaultOptions()
	opt.Detect.Window = sim.Millisecond
	p := NewPool(2, opt)
	defer p.Close()
	pl := p.Plane(0)

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
	ep := pl.view.Edge(key).Gen.Epoch
	var gen stg.Gen
	crossed := 0
	for i := 0; i < 6; i++ {
		before := pl.view.Edge(key).Gen.Count / trace.LogChunkRows
		feed(trace.LogChunkRows + 1)
		p.RunWindow(0, 50_000_000)
		e := pl.view.Edge(key)
		if e.Gen.Epoch != ep {
			t.Fatalf("grow %d: edge epoch moved %d -> %d", i, ep, e.Gen.Epoch)
		}
		if e.Gen.Count < gen.Count {
			t.Fatalf("grow %d: snapshot generation went backwards", i)
		}
		gen = e.Gen
		if e.Gen.Count/trace.LogChunkRows > before {
			crossed++
		}
	}
	if crossed != 6 {
		t.Fatalf("the log crossed %d chunk boundaries, want 6", crossed)
	}
}

// TestRefreshViewWarmAllocs: refreshing a warm plane that received no
// fragments since its last refresh allocates nothing.
func TestRefreshViewWarmAllocs(t *testing.T) {
	p := NewPool(6, equivOptions())
	feedEquivWorkload(p, 6)
	p.WindowResults()
	pl := p.Plane(0)
	pl.amu.Lock()
	defer pl.amu.Unlock()
	if n := testing.AllocsPerRun(100, func() { pl.refreshView() }); n != 0 {
		t.Fatalf("warm refresh allocates %v times, want 0", n)
	}
}
