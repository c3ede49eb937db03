package collector

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"vapro/internal/detect"
	"vapro/internal/interpose"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// Single-copy monitor equivalence and residency. Monitor keeps no graph
// or analyzer: its windows run on its planes' views. These tests pin
// that this changes nothing observable — the events and window results
// over one pool equal those over a merging one-plane pool and a
// reference that re-implements the old private-graph monitor cold — and
// that the monitor's own state is O(ranks), not O(fragments).

// equivSchedule is one scripted run for the monitor equivalence fuzz:
// per-rank batch streams (some lost in transit, leaving sequence gaps)
// interleaved sequence-preservingly by the seeded RNG. commIO selects
// the multi-D population (comm/IO vertices whose workload vector is
// the invocation arguments) instead of the 1-D computation one. A third
// of the ranks run slow through the middle of the run so windows have
// regions to report and stages to escalate.
func equivSchedule(rng *rand.Rand, ranks int, commIO bool) []fuzzBatch {
	perRank := make([][]fuzzBatch, ranks)
	remaining := 0
	for r := 0; r < ranks; r++ {
		t := int64(r) // globally unique starts: every sort order is total
		for b, nb := 0, 10+rng.Intn(6); b < nb; b++ {
			frags := make([]trace.Fragment, 4+rng.Intn(5))
			for i := range frags {
				f := trace.Fragment{Rank: r, Start: t, Elapsed: int64(900+rng.Intn(200)) * 10}
				switch k := rng.Intn(8); {
				case commIO && k < 5:
					st := rng.Intn(3)
					f.Kind, f.State = trace.Comm, uint64(1000+st)
					f.Args = trace.Args{Op: trace.OpAllreduce, Bytes: 1 << uint(10+rng.Intn(3)), Peer: -1, Tag: st}
				case commIO && k < 7:
					st := rng.Intn(2)
					f.Kind, f.State = trace.IO, uint64(2000+st)
					f.Args = trace.Args{Op: trace.OpWrite, Bytes: 1 << uint(12+rng.Intn(2)), FD: 3 + st}
				default:
					e := rng.Intn(3)
					f.Kind, f.From, f.State = trace.Comp, uint64(e+1), uint64(e+2)
					f.Counters = trace.CountersView{TotIns: uint64(1+rng.Intn(3))*1_000_000 + uint64(rng.Intn(1000))}
				}
				if r%3 == 0 && t > 150_000 && t < 350_000 {
					f.Elapsed *= 2
				}
				t += f.Elapsed
				frags[i] = f
			}
			perRank[r] = append(perRank[r], fuzzBatch{rank: r, seq: uint64(b), frags: frags, deliver: rng.Float64() >= 0.1})
		}
		remaining += len(perRank[r])
	}
	var out []fuzzBatch
	heads := make([]int, ranks)
	for remaining > 0 {
		r := rng.Intn(ranks)
		if heads[r] < len(perRank[r]) {
			out = append(out, perRank[r][heads[r]])
			heads[r]++
			remaining--
		}
	}
	return out
}

func singleCopyOptions(ranks int) (Options, MonitorOptions) {
	copt := DefaultOptions()
	copt.Period = 100 * sim.Microsecond
	copt.Overlap = 50 * sim.Microsecond
	copt.Detect.Window = 10 * sim.Microsecond
	copt.Detect.MinRegionCells = 1
	mopt := DefaultMonitorOptions(ranks)
	mopt.MinRegionLoss = sim.Microsecond
	mopt.Classes = nil // every class may report: comm/IO populations too
	return copt, mopt
}

// refMonitor is the monitor this PR removed, kept as the test's
// reference: a private graph appended per batch, the map-scan
// watermark, and a cold analysis (fresh analyzer, DisableIncremental)
// of every window the watermark closes.
type refMonitor struct {
	ranks     int
	win       Options // the windows
	opt       MonitorOptions
	seq       *SeqTracker
	armed     *interpose.Armed
	graph     *stg.Graph
	rankHigh  map[int]sim.Time
	nextStart sim.Time
	stage     int
	events    []Event
}

func newRefMonitor(ranks int, win Options, opt MonitorOptions) *refMonitor {
	win.Detect.DisableIncremental = true
	return &refMonitor{
		ranks: ranks, win: win, opt: opt,
		seq: NewSeqTracker(), graph: stg.New(), rankHigh: map[int]sim.Time{}, stage: 1,
		armed: interpose.NewArmed(sim.GroupBase | sim.GroupTopdownL1 | sim.GroupOS),
	}
}

// mapWatermark is the full scan both monitors used to run per batch.
func mapWatermark(rankHigh map[int]sim.Time, ranks int) sim.Time {
	if len(rankHigh) < ranks {
		return 0
	}
	var min sim.Time = 1 << 62
	for _, t := range rankHigh {
		if t < min {
			min = t
		}
	}
	return min
}

func (m *refMonitor) ConsumeSized(rank int, frags []trace.Fragment, _ int) {
	m.graph.AddBatch(frags)
	high := m.rankHigh[rank]
	for i := range frags {
		if e := sim.Time(frags[i].End()); e > high {
			high = e
		}
	}
	m.rankHigh[rank] = high
	for mapWatermark(m.rankHigh, m.ranks) >= m.nextStart.Add(m.win.Period) {
		m.analyzeNext()
	}
}

func (m *refMonitor) flush() {
	var max sim.Time
	for _, t := range m.rankHigh {
		if t > max {
			max = t
		}
	}
	for m.nextStart < max {
		m.analyzeNext()
	}
}

func (m *refMonitor) analyzeNext() {
	start, end := m.nextStart, m.nextStart.Add(m.win.Period)
	m.nextStart = start.Add(m.win.Period - m.win.Overlap)
	dopt := m.win.Detect
	dopt.Outages = m.seq.Outages()
	res := detect.NewAnalyzer().RunWindow(m.graph, m.ranks, dopt, int64(start), int64(end))
	var regions []detect.Region
	for _, reg := range res.Regions {
		if sim.Duration(reg.LossNS) >= m.opt.MinRegionLoss {
			regions = append(regions, reg)
		}
	}
	if len(regions) == 0 {
		return
	}
	if m.stage < m.opt.MaxStage {
		m.stage++
		if m.stage == 2 {
			m.armed.Set(m.armed.Get() | sim.GroupBackend)
		} else {
			m.armed.Set(m.armed.Get() | sim.GroupMemory | sim.GroupExtra)
		}
	}
	m.events = append(m.events, Event{WindowStart: start, WindowEnd: end, Regions: regions, ArmedAfter: m.armed.Get(), Stage: m.stage})
}

// sameEventList requires deep equality up to the order of equal-loss
// regions (the LossNS sort is unstable on ties).
func sameEventList(got, want []Event) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		g.Regions, w.Regions = regionOrder(g.Regions), regionOrder(w.Regions)
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("event %d [%d,%d) stage %d armed %v with %d regions, want [%d,%d) stage %d armed %v with %d regions",
				i, g.WindowStart, g.WindowEnd, g.Stage, g.ArmedAfter, len(g.Regions),
				w.WindowStart, w.WindowEnd, w.Stage, w.ArmedAfter, len(w.Regions))
		}
	}
	return nil
}

// TestMonitorSingleCopyEquivalenceFuzz: over seeded delivery schedules
// and both population shapes, the graph-less Monitor's drained events
// and its pool's WindowResults equal (a) a monitor over a one-plane
// pool that merges its plane's partials (forceMerge), fed through its
// WireSink(0), and (b) the old private-graph monitor run cold.
func TestMonitorSingleCopyEquivalenceFuzz(t *testing.T) {
	const ranks = 6
	var events int
	for _, commIO := range []bool{false, true} {
		for seed := 0; seed < 30; seed++ {
			schedule := equivSchedule(rand.New(rand.NewSource(int64(seed)+1000)), ranks, commIO)
			copt, mopt := singleCopyOptions(ranks)

			pool := NewPool(ranks, copt)
			mon := NewMonitor(pool, mopt)
			tier := NewShardedPool(ranks, 1, copt)
			forceMerge(tier)
			smon := NewMonitor(tier, mopt)
			ssink := smon.WireSink(0)
			ref := newRefMonitor(ranks, copt, mopt)
			for _, b := range schedule {
				deliverTo(pool.SeqState(), mon, b)
				deliverTo(tier.Plane(0).SeqState(), ssink, b)
				deliverTo(ref.seq, ref, b)
			}
			mon.Flush()
			smon.Flush()
			ref.flush()

			got := mon.Drain()
			events += len(got)
			if err := sameEventList(got, smon.Drain()); err != nil {
				t.Fatalf("commIO=%v seed=%d: monitor vs its merging wire-sink twin: %v", commIO, seed, err)
			}
			if err := sameEventList(got, ref.events); err != nil {
				t.Fatalf("commIO=%v seed=%d: monitor vs cold private-graph reference: %v", commIO, seed, err)
			}
			if mon.Stage() != smon.Stage() || mon.Stage() != ref.stage || pool.Armed.Get() != ref.armed.Get() {
				t.Fatalf("commIO=%v seed=%d: stage/arming diverged: %d/%d/%d", commIO, seed, mon.Stage(), smon.Stage(), ref.stage)
			}

			// Whole-run window results, after the ticks warmed the shared
			// analyzer: equal to the tier's and to a cold pass over the
			// reference graph on the same grid.
			live := pool.WindowResults()
			sharded := tier.WindowResults()
			if len(live) == 0 || len(live) != len(sharded) {
				t.Fatalf("commIO=%v seed=%d: %d windows, tier has %d", commIO, seed, len(live), len(sharded))
			}
			cold := ref.win.Detect
			cold.Outages = ref.seq.Outages()
			for wi, w := range live {
				if w.Start != sharded[wi].Start || w.End != sharded[wi].End {
					t.Fatalf("commIO=%v seed=%d: window %d grid differs", commIO, seed, wi)
				}
				compareFull(t, seed, wi, w.Result, sharded[wi].Result)
				compareFull(t, seed, wi, w.Result,
					detect.NewAnalyzer().RunWindow(ref.graph, ranks, cold, int64(w.Start), int64(w.End)))
			}
			pool.Close()
			tier.Close()
		}
	}
	if events == 0 {
		t.Fatal("no schedule produced an event; the equivalence is vacuous")
	}
}

// residentStream feeds a deterministic quiet run (no variance, so no
// events and no stage changes) of 16 ranks × 200 batches × 64 fragments
// = 204 800 fragments through consume, one reused batch buffer for the
// whole run — the sink contract says the sink may not keep it.
func residentStream(consume func(batch int, rank int, frags []trace.Fragment)) {
	const ranks, rounds, per = 16, 200, 64
	rng := rand.New(rand.NewSource(99))
	clocks := make([]int64, ranks)
	buf := make([]trace.Fragment, per)
	for round := 0; round < rounds; round++ {
		for rank := 0; rank < ranks; rank++ {
			for i := range buf {
				e := rng.Intn(8)
				buf[i] = trace.Fragment{
					Rank: rank, Kind: trace.Comp, From: uint64(e + 1), State: uint64(e + 2),
					Start: clocks[rank], Elapsed: int64(900_000 + rng.Intn(200_000)),
					Counters: trace.CountersView{TotIns: uint64(1+rng.Intn(5))*1_000_000 + uint64(rng.Intn(1000))},
				}
				clocks[rank] += buf[i].Elapsed
			}
			consume(round*ranks+rank, rank, buf)
		}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMonitorSingleResidentCopy: a pool fronted by a Monitor must hold
// no more live heap than the same pool ticked by hand at the same
// window closes — the monitor adds O(ranks) state, not a second copy of
// every fragment. The bound is relative (10 %);
// TestResidentBytesPerFragmentBudget is the absolute one.
func TestMonitorSingleResidentCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~200 MB")
	}
	copt := DefaultOptions()
	copt.Period = 2 * sim.Second
	copt.Overlap = sim.Second
	copt.Detect.Window = 100 * sim.Millisecond
	mopt := DefaultMonitorOptions(16)

	// Monitored run: note after which batch each window closed.
	base := liveHeap()
	pool := NewPool(16, copt)
	mon := NewMonitor(pool, mopt)
	windows := pool.Metrics().Detect.Windows
	closedAt := map[int]int{} // batch → windows it closed
	residentStream(func(batch, rank int, frags []trace.Fragment) {
		before := windows.Load()
		mon.Consume(rank, frags)
		if n := int(windows.Load() - before); n > 0 {
			closedAt[batch] = n
		}
	})
	monitored := liveHeap() - base
	if len(closedAt) < 5 {
		t.Fatalf("%d ticks ran; the comparison needs a warm analyzer", len(closedAt))
	}
	if n := pool.FragmentCount(); n < 200_000 {
		t.Fatalf("only %d fragments resident", n)
	}
	if ev := mon.Drain(); len(ev) != 0 {
		t.Fatalf("quiet stream produced %d events", len(ev))
	}
	runtime.KeepAlive(mon)
	pool.Close()
	pool, mon = nil, nil

	// Bare run: same stream, Pool.RunWindow at the same closes.
	base = liveHeap()
	bare := NewPool(16, copt)
	var next int64
	tick := func(n int) {
		for ; n > 0; n-- {
			bare.RunWindow(next, next+int64(copt.Period))
			next += int64(copt.Period - copt.Overlap)
		}
	}
	residentStream(func(batch, rank int, frags []trace.Fragment) {
		bare.Consume(rank, frags)
		tick(closedAt[batch])
	})
	unmonitored := liveHeap() - base
	runtime.KeepAlive(bare)
	bare.Close()

	t.Logf("live heap: monitored %.1f MB, bare pool %.1f MB (%.0f / %.0f B per fragment)",
		float64(monitored)/1e6, float64(unmonitored)/1e6, float64(monitored)/204800, float64(unmonitored)/204800)
	if float64(monitored) > 1.10*float64(unmonitored) {
		t.Fatalf("monitor holds %.1f MB over a bare pool's %.1f MB: more than 10%% extra resident state",
			float64(monitored)/1e6, float64(unmonitored)/1e6)
	}
}
