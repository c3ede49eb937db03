package collector

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"vapro/internal/detect"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// referenceWindowResults is the naive implementation the optimized path
// must reproduce bit for bit: scan every fragment for the span, guard
// each window with a full-graph overlap scan, analyze with a fresh
// (cold, batch) analyzer per call. It runs over the pool's snapshot,
// whose content is pinned separately: every element must alias exactly
// the graph's rows (assertViewMatchesGraph).
func referenceWindowResults(t *testing.T, p *Pool) []*WindowResult {
	t.Helper()
	pl := p.Plane(0)
	pl.drain()
	pl.amu.Lock()
	g := pl.refreshView()
	pl.amu.Unlock()
	assertViewMatchesGraph(t, pl, g)
	var maxEnd int64
	collect := func(frags []trace.Fragment) {
		for i := range frags {
			if e := frags[i].Start + frags[i].Elapsed; e > maxEnd {
				maxEnd = e
			}
		}
	}
	for _, e := range g.Edges() {
		collect(e.Log().Slice())
	}
	for _, v := range g.Vertices() {
		collect(v.Log().Slice())
	}
	if maxEnd == 0 {
		return nil
	}
	stride := int64(p.opt.Period - p.opt.Overlap)
	if stride <= 0 {
		stride = int64(p.opt.Period)
	}
	overlapsAny := func(start, end int64) bool {
		keep := func(f *trace.Fragment) bool {
			return f.Start < end && f.Start+f.Elapsed > start
		}
		anyKept := func(frags []trace.Fragment) bool {
			for i := range frags {
				if keep(&frags[i]) {
					return true
				}
			}
			return false
		}
		for _, e := range g.Edges() {
			if anyKept(e.Log().Slice()) {
				return true
			}
		}
		for _, v := range g.Vertices() {
			if anyKept(v.Log().Slice()) {
				return true
			}
		}
		return false
	}
	an := detect.NewAnalyzer()
	var out []*WindowResult
	for start := int64(0); start < maxEnd; start += stride {
		end := start + int64(p.opt.Period)
		if !overlapsAny(start, end) {
			continue
		}
		res := an.RunWindow(g, p.ranks, p.opt.Detect, start, end)
		out = append(out, &WindowResult{Start: sim.Time(start), End: sim.Time(end), Result: res})
	}
	return out
}

// assertViewMatchesGraph pins the snapshot's content: every element
// holds exactly the graph element's rows, in order, with its kind, and
// no element exists on one side only.
func assertViewMatchesGraph(t *testing.T, pl *plane, g *stg.Graph) {
	t.Helper()
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if g.NumEdges() != pl.graph.NumEdges() || g.NumVertices() != pl.graph.NumVertices() {
		t.Fatalf("snapshot has %d edges/%d vertices, graph has %d/%d",
			g.NumEdges(), g.NumVertices(), pl.graph.NumEdges(), pl.graph.NumVertices())
	}
	for _, e := range pl.graph.Edges() {
		ve := g.Edge(e.Key)
		if ve == nil || !reflect.DeepEqual(e.Log().Slice(), ve.Log().Slice()) {
			t.Fatalf("edge %v: snapshot diverged from the graph", e.Key)
		}
	}
	for _, vx := range pl.graph.Vertices() {
		vv := g.Vertex(vx.Key)
		if vv == nil || vv.Kind != vx.Kind || !reflect.DeepEqual(vx.Log().Slice(), vv.Log().Slice()) {
			t.Fatalf("vertex %d: snapshot diverged from the graph", vx.Key)
		}
	}
}

func sameDetectResult(t *testing.T, i int, a, b *detect.Result) {
	t.Helper()
	if a.FixedClusters != b.FixedClusters || a.SmallClusters != b.SmallClusters {
		t.Fatalf("window %d: cluster counts (%d,%d) vs (%d,%d)", i,
			a.FixedClusters, a.SmallClusters, b.FixedClusters, b.SmallClusters)
	}
	if math.Float64bits(a.OverallCoverage) != math.Float64bits(b.OverallCoverage) ||
		!reflect.DeepEqual(a.Coverage, b.Coverage) {
		t.Fatalf("window %d: coverage differs", i)
	}
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatalf("window %d: samples differ", i)
	}
	if !reflect.DeepEqual(a.Regions, b.Regions) {
		t.Fatalf("window %d: regions differ (%d vs %d)", i, len(a.Regions), len(b.Regions))
	}
	if len(a.Maps) != len(b.Maps) {
		t.Fatalf("window %d: map count %d vs %d", i, len(a.Maps), len(b.Maps))
	}
	for class, ha := range a.Maps {
		hb := b.Maps[class]
		if hb == nil || ha.Ranks != hb.Ranks || ha.Windows != hb.Windows || ha.Origin != hb.Origin {
			t.Fatalf("window %d class %v: heat map shape differs", i, class)
		}
		for c := range ha.Cells {
			if math.Float64bits(ha.Cells[c]) != math.Float64bits(hb.Cells[c]) {
				t.Fatalf("window %d class %v cell %d: %v vs %v", i, class, c, ha.Cells[c], hb.Cells[c])
			}
		}
	}
}

func sameWindowResults(t *testing.T, mode string, got, want []*WindowResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", mode, len(got), len(want))
	}
	for i := range got {
		if got[i].Start != want[i].Start || got[i].End != want[i].End {
			t.Fatalf("%s window %d: [%v,%v) vs [%v,%v)", mode, i,
				got[i].Start, got[i].End, want[i].Start, want[i].End)
		}
		sameDetectResult(t, i, got[i].Result, want[i].Result)
	}
}

func equivOptions() Options {
	opt := DefaultOptions()
	opt.Period = 10 * sim.Millisecond
	opt.Overlap = 5 * sim.Millisecond
	opt.Detect.Window = sim.Millisecond
	opt.Detect.Cluster.MinFragments = 4
	return opt
}

// feedEquivWorkload pushes a deterministic mixed workload: dense comp
// edges with a variance region, mixed-kind vertices, a long quiet gap
// (windows with no fragments), and a trailing burst.
func feedEquivWorkload(p *Pool, ranks int) {
	rng := sim.NewRNG(11)
	for rank := 0; rank < ranks; rank++ {
		var batch []trace.Fragment
		for i := 0; i < 120; i++ {
			el := int64(400_000 + rng.Intn(2000))
			if rank == 1 && i >= 40 && i < 60 {
				el *= 3
			}
			start := int64(i) * 500_000
			if i >= 80 {
				start += 40_000_000 // quiet gap, then a late burst
			}
			batch = append(batch, trace.Fragment{
				Rank: rank, Kind: trace.Comp,
				From: uint64(1 + i%3), State: uint64(2 + i%3),
				Start: start, Elapsed: el,
				Counters: trace.CountersView{TotIns: uint64(1_000_000 + rng.Intn(500))},
			})
			if i%5 == 0 {
				k := trace.Comm
				if i%10 == 0 {
					k = trace.IO
				}
				batch = append(batch, trace.Fragment{
					Rank: rank, Kind: k, State: uint64(2 + i%3),
					Start: start + el, Elapsed: int64(100_000 + rng.Intn(1000)),
					Args: trace.Args{Op: trace.Op("Allreduce"), Bytes: 4096},
				})
			}
			if len(batch) >= 16 {
				p.Consume(rank, batch)
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			p.Consume(rank, batch)
		}
	}
}

// intakeMode is one intake shape: the staged-backlog bound. The zero
// value is production's.
type intakeMode struct {
	name     string
	maxStage int
}

// setIntake reshapes a fresh pool to m, before anything is staged: a
// tiny bound forces the synchronous-drain path on most consumes.
func setIntake(p *Pool, m intakeMode) {
	if m.maxStage > 0 {
		p.Plane(0).maxStaged = m.maxStage
	}
}

// TestWindowResultsEquivalence pins the optimized analysis plane to the
// naive one: for every intake shape, sequential feeding must produce
// WindowResults bit-identical to a cold batch rescan of the snapshot, on
// cold, warm, and grown pools.
func TestWindowResultsEquivalence(t *testing.T) {
	const ranks = 6
	ref := NewPool(ranks, equivOptions())
	feedEquivWorkload(ref, ranks)
	want := referenceWindowResults(t, ref)
	if len(want) < 3 {
		t.Fatalf("fixture too small: %d windows", len(want))
	}

	modes := []intakeMode{
		{name: "production"},
		{name: "tiny-backlog", maxStage: 1},
	}
	for _, m := range modes {
		p := NewPool(ranks, equivOptions())
		setIntake(p, m)
		feedEquivWorkload(p, ranks)
		got := p.WindowResults()
		sameWindowResults(t, m.name, got, want)
		// A second call over an unchanged pool (the all-warm path) must
		// return the same thing again.
		sameWindowResults(t, m.name+"/warm", p.WindowResults(), want)
		// And after more data arrives, the incremental refresh must
		// match a reference pool fed the same total stream.
		feedEquivWorkload(p, ranks)
		feedEquivWorkload(ref, ranks)
		sameWindowResults(t, m.name+"/grown", p.WindowResults(), referenceWindowResults(t, ref))
		p.Close()

		ref = NewPool(ranks, equivOptions())
		feedEquivWorkload(ref, ranks)
	}
}

// TestConcurrentConsume hammers one pool from 8 goroutines while the
// analysis side reads, then checks nothing was lost. Run under -race
// via `make race`.
func TestConcurrentConsume(t *testing.T) {
	for _, intake := range []intakeMode{
		{name: "production"},
		{name: "small-backlog", maxStage: 4},
	} {
		const ranks, perRank = 8, 500
		p := NewPool(ranks, equivOptions())
		setIntake(p, intake)
		var wg sync.WaitGroup
		for rank := 0; rank < ranks; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for i := 0; i < perRank; i++ {
					p.Consume(rank, []trace.Fragment{frag(rank, int64(i)*100_000, 50_000)})
				}
			}(rank)
		}
		// Concurrent readers exercise drain-vs-stage races.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p.FragmentCount()
				p.WindowResults()
			}
		}()
		wg.Wait()
		p.Close()
		if n := p.FragmentCount(); n != ranks*perRank {
			t.Fatalf("%s: %d fragments, want %d", intake.name, n, ranks*perRank)
		}
		if st := p.Stats(sim.Second); st.Batches != ranks*perRank {
			t.Fatalf("%s: %d batches", intake.name, st.Batches)
		}
		if len(p.WindowResults()) == 0 {
			t.Fatalf("%s: no windows", intake.name)
		}
	}
}

// TestIntakeBackpressure: a tiny backlog bound forces synchronous
// drains; nothing may be lost or double-counted.
func TestIntakeBackpressure(t *testing.T) {
	p := NewPool(4, equivOptions())
	setIntake(p, intakeMode{maxStage: 2})
	for i := 0; i < 100; i++ {
		p.Consume(i%4, []trace.Fragment{frag(i%4, int64(i)*1000, 500)})
	}
	if staged := p.Plane(0).stagedNow(); staged > 2 {
		t.Fatalf("backlog exceeded bound: %d staged", staged)
	}
	if n := p.FragmentCount(); n != 100 {
		t.Fatalf("fragments: %d", n)
	}
}

// TestBurstStagingBuffersReleased: while a drain holds the graph lock,
// every delivered batch is staged into a buffer of its own. After the
// drain the pool keeps at most intakeFreeBuffers of those for reuse; the
// rest go back to the GC instead of staying pinned for its lifetime.
func TestBurstStagingBuffersReleased(t *testing.T) {
	p := NewPool(4, equivOptions())
	defer p.Close()
	const burst = 100
	pl := p.Plane(0)
	pl.mu.Lock() // a drain in progress: no consume can merge
	for i := 0; i < burst; i++ {
		p.Consume(i%4, []trace.Fragment{frag(i%4, int64(i)*1000, 500)})
	}
	if staged := pl.stagedNow(); staged != burst {
		t.Fatalf("%d staged during the held drain, want %d", staged, burst)
	}
	pl.mu.Unlock()
	pl.drain()
	if kept := len(pl.free); kept > intakeFreeBuffers {
		t.Fatalf("pool retains %d staging buffers after the burst, bound %d", kept, intakeFreeBuffers)
	}
	if n := p.FragmentCount(); n != burst {
		t.Fatalf("fragments: %d", n)
	}
}
