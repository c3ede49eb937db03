package detect

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/obs"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// shapeGraph feeds the element shapes the store must carry beside 1-D
// computation edges: a single-class comm vertex (100), a single-class
// IO vertex (101), a vertex that is all-comm until turnMixed and
// carries IO fragments too from then on (102), an edge whose log holds
// Probe fragments among its Comp ones (7→8; Graph.Add would route a
// probe to a vertex, so the edge aliases a log the test owns), and an
// element that exists with no fragments at all (9→9).
type shapeGraph struct {
	g     *stg.Graph
	ranks int
	clock []int64
	probe *trace.Log
}

func newShapeGraph(ranks int) *shapeGraph {
	s := &shapeGraph{g: stg.New(), ranks: ranks, clock: make([]int64, ranks), probe: trace.NewLog(nil)}
	s.g.AliasEdge(trace.EdgeKey{From: 9, To: 9}, trace.LogView{})
	return s
}

// burst appends n fragments spread evenly over the shapes.
func (s *shapeGraph) burst(rng *rand.Rand, n int, mixed bool) {
	batch := make([]trace.Fragment, 0, n)
	for i := 0; i < n; i++ {
		rank := rng.Intn(s.ranks)
		if rng.Intn(12) == 0 {
			s.clock[rank] += int64(rng.Intn(30)) * 1_000_000
		}
		el := int64(200_000 + rng.Intn(2_000_000))
		if rng.Intn(16) == 0 {
			el = 0
		}
		f := trace.Fragment{Rank: rank, Start: s.clock[rank], Elapsed: el}
		s.clock[rank] += el
		comp := func(from, to uint64) {
			f.Kind, f.From, f.State = trace.Comp, from, to
			switch rng.Intn(4) {
			case 0: // zero-workload snippets
			case 1: // dense ties straddling the cut threshold
				f.Counters.TotIns = uint64(1 + rng.Intn(4))
			default:
				f.Counters.TotIns = uint64(1+rng.Intn(3))*100_000 + uint64(rng.Intn(7000))
			}
		}
		comm := func(state uint64) {
			f.Kind, f.State = trace.Comm, state
			f.Args = trace.Args{Op: trace.Op("Allreduce"), Bytes: 1 << uint(10+rng.Intn(3)), Peer: -1}
		}
		io := func(state uint64) {
			f.Kind, f.State = trace.IO, state
			f.Args = trace.Args{Op: trace.Op("write"), Bytes: 4096 << uint(rng.Intn(2)), FD: 3}
		}
		switch rng.Intn(6) {
		case 0:
			comp(1, 2)
		case 1:
			comp(2, 3)
		case 2:
			comm(100)
		case 3:
			io(101)
		case 4:
			if mixed && rng.Intn(2) == 0 {
				io(102)
			} else {
				comm(102)
			}
		default:
			comp(7, 8)
			if rng.Intn(3) == 0 {
				f.Kind = trace.Probe
			}
			s.probe.Append(&f)
			continue
		}
		batch = append(batch, f)
	}
	s.g.AddBatch(batch)
	s.g.AliasEdge(trace.EdgeKey{From: 7, To: 8}, s.probe.View())
}

// TestSampleStoreHatchEquivalenceFuzz pins the sample store
// bit-identical to the DisableIncremental oracle on every element shape
// (shapeGraph): the same schedule runs through a persistent store-backed
// analyzer, a persistent oracle analyzer (flat preps served across
// windows of one generation, rebuilt when the element moves) and a cold
// oracle, and all three must agree exactly on every burst; every
// element, whatever its shape, must be on the store.
func TestSampleStoreHatchEquivalenceFuzz(t *testing.T) {
	schedules := 60
	if testing.Short() {
		schedules = 15
	}
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("sched%03d", sched), func(t *testing.T) {
			t.Parallel()
			runStoreOracleSchedule(t, int64(9300+sched))
		})
	}
}

func runStoreOracleSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ranks := 2 + rng.Intn(3)

	opt := DefaultOptions()
	opt.Window = sim.Duration(1+rng.Intn(15)) * sim.Millisecond
	opt.Threshold = []float64{0.7, 0.85, 0.95}[rng.Intn(3)]
	opt.Parallelism = rng.Intn(3)
	if rng.Intn(4) == 0 {
		opt.Cluster.MinFragments = 2
	}
	opt.Cluster.UseExtraMetrics = rng.Intn(4) == 0
	bopt := opt
	bopt.DisableIncremental = true

	s := newShapeGraph(ranks)
	store, oracle := NewAnalyzer(), NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	store.SetMetrics(met)

	bursts := 4 + rng.Intn(4)
	turnMixed := 1 + rng.Intn(bursts-1)
	for b := 0; b < bursts; b++ {
		s.burst(rng, 10+rng.Intn(120), b >= turnMixed)

		var got, warm, want *Result
		if rng.Intn(2) == 0 {
			ws := int64(rng.Intn(30)) * 1_000_000
			we := ws + int64(5+rng.Intn(50))*1_000_000
			got = store.RunWindow(s.g, ranks, opt, ws, we)
			warm = oracle.RunWindow(s.g, ranks, bopt, ws, we)
			want = NewAnalyzer().RunWindow(s.g, ranks, bopt, ws, we)
		} else {
			got = store.Run(s.g, ranks, opt)
			warm = oracle.Run(s.g, ranks, bopt)
			want = NewAnalyzer().Run(s.g, ranks, bopt)
		}
		if !equalResults(got, want) {
			t.Fatalf("burst %d: store-backed result diverged from the oracle (seed %d)", b, seed)
		}
		if !equalResults(warm, want) {
			t.Fatalf("burst %d: persistent oracle diverged from a cold one (seed %d)", b, seed)
		}
	}
	for key, p := range store.preps {
		if p.store == nil || p.flat != nil {
			t.Fatalf("element %+v is not store-backed on the incremental plane", key)
		}
	}
	for key, p := range oracle.preps {
		if p.store != nil || p.flat == nil {
			t.Fatalf("element %+v is not flat under DisableIncremental", key)
		}
	}
	if met.StoreAppends.Load() < uint64(s.g.NumFragments()) {
		t.Fatalf("store took %d of %d fragments (seed %d)", met.StoreAppends.Load(), s.g.NumFragments(), seed)
	}
}

// TestSampleStoreHatchMidRun flips DisableIncremental on one analyzer,
// both ways, with and without growth in between: a prep built in one
// mode is never served or advanced in the other — the flip rebuilds
// every element in the mode asked for, even at an unchanged generation
// — and results stay identical to a cold oracle throughout.
func TestSampleStoreHatchMidRun(t *testing.T) {
	const ranks = 3
	s := newShapeGraph(ranks)
	a := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	a.SetMetrics(met)
	opt := DefaultOptions()
	opt.Window = 5 * sim.Millisecond
	bopt := opt
	bopt.DisableIncremental = true
	rng := rand.New(rand.NewSource(7))

	check := func(o Options, stage string) {
		t.Helper()
		got := a.Run(s.g, ranks, o)
		want := NewAnalyzer().Run(s.g, ranks, bopt)
		if !equalResults(got, want) {
			t.Fatalf("%s: result diverged from a cold oracle", stage)
		}
		for key, p := range a.preps {
			if (p.flat != nil) != o.DisableIncremental || (p.store != nil) == o.DisableIncremental {
				t.Fatalf("%s: element %+v served from the other mode's prep", stage, key)
			}
		}
	}
	// stepped runs fn and returns how many preps it rebuilt, advanced
	// and how many streams it comparison-sorted.
	stepped := func(fn func()) (rebuilt, advanced, sorted uint64) {
		r0, a0, s0 := met.PrepRebuilds.Load(), met.PrepIncremental.Load(), met.SortFallbacks.Load()
		fn()
		return met.PrepRebuilds.Load() - r0, met.PrepIncremental.Load() - a0, met.SortFallbacks.Load() - s0
	}

	s.burst(rng, 120, true)
	check(opt, "store warmup")
	elems := uint64(len(a.preps))
	s.burst(rng, 120, true)
	// (A rebuild here is the clustering plane falling back on one
	// element — an in-band new minimum re-forms its partition.)
	if rebuilt, advanced, sorted := stepped(func() { check(opt, "store growth") }); rebuilt >= advanced || sorted != 0 {
		t.Fatalf("warm store growth: %d rebuilt, %d advanced, %d sorted", rebuilt, advanced, sorted)
	}

	// Same generation, other mode: nothing the store built is served.
	if rebuilt, advanced, sorted := stepped(func() { check(bopt, "flip to oracle") }); rebuilt != elems || advanced != 0 || sorted == 0 {
		t.Fatalf("flip to oracle at rest: %d of %d rebuilt, %d advanced, %d sorted", rebuilt, elems, advanced, sorted)
	}
	s.burst(rng, 120, true)
	if _, advanced, _ := stepped(func() { check(bopt, "oracle growth") }); advanced != 0 {
		t.Fatalf("the oracle advanced %d preps", advanced)
	}
	if rebuilt, _, _ := stepped(func() { check(bopt, "oracle at rest") }); rebuilt != 0 {
		t.Fatalf("the oracle rebuilt %d preps of an unchanged graph", rebuilt)
	}

	// And back, again at an unchanged generation.
	if rebuilt, advanced, sorted := stepped(func() { check(opt, "flip to store") }); rebuilt != elems || advanced != 0 || sorted != 0 {
		t.Fatalf("flip to store at rest: %d of %d rebuilt, %d advanced, %d sorted", rebuilt, elems, advanced, sorted)
	}
	// The clustering cache recaptures its incremental state on the first
	// growth after batch mode (one Full delta per element); the store
	// advances from the second on.
	s.burst(rng, 120, true)
	check(opt, "store re-enabled growth")
	s.burst(rng, 120, true)
	if rebuilt, advanced, _ := stepped(func() { check(opt, "store re-enabled steady growth") }); rebuilt >= advanced {
		t.Fatalf("re-enabled store growth: %d rebuilt, %d advanced", rebuilt, advanced)
	}
	// A flip across growth: the oracle must not advance the store's prep.
	s.burst(rng, 120, true)
	if rebuilt, advanced, _ := stepped(func() { check(bopt, "flip to oracle across growth") }); rebuilt != elems || advanced != 0 {
		t.Fatalf("flip to oracle across growth: %d of %d rebuilt, %d advanced", rebuilt, elems, advanced)
	}
}

// TestSampleStoreRebuildsLeaveNothingDead drives an edge whose head
// clusters keep re-forming (each burst's smaller norms move the greedy
// cut) beside a large stable cluster. Every re-formed cluster re-walks
// its members; the store must stay exact, keep exactly one entry per
// fragment, and never need a rebuild — there is no dead state to
// accumulate.
func TestSampleStoreRebuildsLeaveNothingDead(t *testing.T) {
	g := stg.New()
	a := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	a.SetMetrics(met)
	opt := DefaultOptions()
	opt.Window = 5 * sim.Millisecond
	opt.Cluster.MinFragments = 2
	// A second cache, stepped through the same generations, hands back
	// the Deltas the analyzer's own cache sees: count the runs rebuilt
	// from other clusters' members.
	deltas := cluster.NewCache()
	reformed := 0
	countReformed := func() {
		for _, e := range g.Edges() {
			_, d := deltas.RunInc(cluster.EdgeKey(e.Key), e.Gen, e.Log(), opt.Cluster)
			reformed += len(d.Born)
		}
	}

	var clock int64
	emitBatch := func(norms []uint64) {
		batch := make([]trace.Fragment, 0, len(norms))
		for _, nv := range norms {
			el := int64(1_000_000)
			batch = append(batch, trace.Fragment{
				Rank: 0, Kind: trace.Comp, From: 1, State: 2,
				Start: clock, Elapsed: el,
				Counters: trace.CountersView{TotIns: nv},
			})
			clock += el
		}
		g.AddBatch(batch)
	}

	// Stable ballast far above the churning head region.
	ballast := make([]uint64, 400)
	for i := range ballast {
		ballast[i] = 50_000_000
	}
	head := make([]uint64, 0, 24)
	for i := 0; i < 12; i++ {
		head = append(head, 2_000_000)
	}
	for i := 0; i < 12; i++ {
		head = append(head, 2_090_000)
	}
	emitBatch(append(append([]uint64{}, ballast...), head...))

	check := func(b int) {
		countReformed()
		got := a.Run(g, 1, opt)
		bopt := opt
		bopt.DisableIncremental = true
		want := NewAnalyzer().Run(g, 1, bopt)
		if !equalResults(got, want) {
			t.Fatalf("burst %d: result diverged from batch", b)
		}
	}
	check(-1)

	// Each burst shifts the head's cluster boundary downward: the head
	// clusters re-form while the ballast cluster is untouched
	// prefix/tail.
	norm := uint64(1_950_000)
	for b := 0; b < 40; b++ {
		emitBatch([]uint64{norm, norm, norm, norm})
		norm -= 45_000
		check(b)
	}
	if r := met.PrepRebuilds.Load(); r != 1 {
		t.Fatalf("prep rebuilt %d times; want only the cold build", r)
	}
	var p *prepElem
	for _, p = range a.preps {
	}
	st := p.store
	if reformed == 0 {
		t.Fatal("no cluster was ever re-formed")
	}
	if st.cl.Len() != p.nfrags || p.nfrags != g.NumFragments() {
		t.Fatalf("store reads %d labels for %d fragments (graph: %d)", st.cl.Len(), p.nfrags, g.NumFragments())
	}
	if indexed := indexedSpans(st); indexed != p.nfrags {
		t.Fatalf("span index holds %d entries for %d fragments", indexed, p.nfrags)
	}
}

// indexedSpans counts the entries of a store's span indexes.
func indexedSpans(st *sampleStore) (n int) {
	for c := range st.spans {
		for _, seg := range st.spans[c].segs {
			n += len(seg.pos)
		}
	}
	return n
}

// TestMixedClassVertexAdvancesInPlace: a vertex carrying comm and IO
// fragments — in the same clusters when their argument vectors agree —
// is advanced by its appends like any other element. Across 24 appends
// the prep is built once, every fragment is indexed under its own class,
// and every window matches the oracle.
func TestMixedClassVertexAdvancesInPlace(t *testing.T) {
	const ranks = 4
	g := stg.New()
	a := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	a.SetMetrics(met)
	opt := DefaultOptions()
	opt.Window = 5 * sim.Millisecond
	bopt := opt
	bopt.DisableIncremental = true
	rng := rand.New(rand.NewSource(11))
	clock := make([]int64, ranks)
	var perClass [numClasses]int
	for step := 0; step < 25; step++ {
		batch := make([]trace.Fragment, 0, 64)
		for i := 0; i < 64; i++ {
			rank := rng.Intn(ranks)
			el := int64(900_000 + rng.Intn(200_000))
			f := trace.Fragment{
				Rank: rank, State: 500, Start: clock[rank], Elapsed: el,
				Kind: []trace.Kind{trace.Comm, trace.IO, trace.Sync}[rng.Intn(3)],
				Args: trace.Args{Op: trace.Op("x"), Bytes: 1 << uint(10+rng.Intn(3))},
			}
			perClass[ClassOf(f.Kind)]++
			clock[rank] += el
			batch = append(batch, f)
		}
		g.AddBatch(batch)
		we := clock[0]
		got := a.RunWindow(g, ranks, opt, we-30_000_000, we)
		want := NewAnalyzer().RunWindow(g, ranks, bopt, we-30_000_000, we)
		if !equalResults(got, want) {
			t.Fatalf("append %d: mixed-class vertex diverged from the oracle", step)
		}
		if len(got.Samples[Communication]) == 0 || len(got.Samples[IOClass]) == 0 {
			t.Fatalf("append %d: the window does not see both classes", step)
		}
	}
	if r, adv := met.PrepRebuilds.Load(), met.PrepIncremental.Load(); r != 1 || adv != 24 {
		t.Fatalf("%d rebuilds, %d advances over 24 appends; want the cold build and 24 advances", r, adv)
	}
	st := a.preps[cluster.VertexKey(500)].store
	for c := range st.spans {
		n := 0
		for _, seg := range st.spans[c].segs {
			n += len(seg.pos)
		}
		if n != perClass[c] {
			t.Fatalf("class %v index holds %d of %d fragments", Class(c), n, perClass[c])
		}
	}
}

// storePopulations are the fragment generators of the allocation pins:
// what fragment i of a burst is, per element shape.
var storePopulations = []struct {
	name string
	frag func(i int) trace.Fragment
}{
	{"comp", func(i int) trace.Fragment {
		return trace.Fragment{Kind: trace.Comp, From: 1, State: 2,
			Counters: trace.CountersView{TotIns: 1_000_000 + uint64(i&7)}}
	}},
	{"comm", func(i int) trace.Fragment {
		return trace.Fragment{Kind: trace.Comm, State: 100,
			Args: trace.Args{Op: trace.Op("Allreduce"), Bytes: 1 << uint(10+i&3), Peer: -1}}
	}},
	{"io", func(i int) trace.Fragment {
		return trace.Fragment{Kind: trace.IO, State: 101,
			Args: trace.Args{Op: trace.Op("write"), Bytes: 4096 << uint(i&1), FD: 3}}
	}},
	{"mixed", func(i int) trace.Fragment {
		return trace.Fragment{Kind: []trace.Kind{trace.Comm, trace.IO}[i>>1&1], State: 102,
			Args: trace.Args{Op: trace.Op("x"), Bytes: 1 << uint(10+i&3)}}
	}},
}

// TestSampleStoreAppendAllocs pins the store's append path on every
// element shape: advancing a warm element by a 4096-fragment burst (and
// analyzing a window that selects none of it) costs a small constant
// number of allocations — log chunks, columns and scratch, never
// anything per fragment — and bytes in proportion to the burst, not to what is
// resident: the same advance at 16 and at 96 resident bursts allocates
// within 2x of the same amount (a representation that copies its
// residents per advance grows 6x).
func TestSampleStoreAppendAllocs(t *testing.T) {
	const n = 4096
	for _, pop := range storePopulations {
		t.Run(pop.name, func(t *testing.T) {
			g := stg.New()
			a := NewAnalyzer()
			opt := DefaultOptions()
			var clock int64
			burst := make([]trace.Fragment, n)
			feed := func() {
				for i := range burst {
					burst[i] = pop.frag(i)
					burst[i].Rank, burst[i].Start, burst[i].Elapsed = i&3, clock, 1000
					clock += 1000
				}
				g.AddBatch(burst)
			}
			advance := func() {
				feed()
				a.RunWindow(g, 4, opt, -2, -1)
			}
			// bytesPerAdvance averages over 16 advances, so the segment
			// merges of the logarithmic method are amortized into it.
			bytesPerAdvance := func() float64 {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < 16; i++ {
					advance()
				}
				runtime.ReadMemStats(&m1)
				return float64(m1.TotalAlloc-m0.TotalAlloc) / 16
			}
			for i := 0; i < 16; i++ {
				advance()
			}
			small := bytesPerAdvance() // resident 16..32 bursts
			for i := 0; i < 64; i++ {
				advance()
			}
			large := bytesPerAdvance() // resident 96..112 bursts
			allocs := testing.AllocsPerRun(10, advance)
			t.Logf("%.1f allocs per advance; %.0f B per appended fragment at 16 resident bursts, %.0f at 96",
				allocs, small/n, large/n)
			if allocs > 160 {
				t.Fatalf("a %d-fragment store advance allocated %.1f times; want <= 160", n, allocs)
			}
			if large > 2*small {
				t.Fatalf("a warm advance allocates %.0f B at 96 resident bursts, %.0f B at 16: it grows with the resident population", large, small)
			}
		})
	}
}

// TestWindowStoreAllocs is TestWindowMergeAllocs' stage-1 sibling: the
// window selection of a warm store element allocates its selection
// buffer and its run list — twice — whatever the number of segments and
// classes it touches, and nothing at all when it selects nothing.
func TestWindowStoreAllocs(t *testing.T) {
	for _, pop := range storePopulations {
		t.Run(pop.name, func(t *testing.T) {
			g := stg.New()
			a := NewAnalyzer()
			opt := DefaultOptions()
			var clock int64
			// Shrinking appends leave one segment each: 2048, 512, 128, 32, 8.
			for size := 2048; size >= 8; size /= 4 {
				batch := make([]trace.Fragment, size)
				for i := range batch {
					batch[i] = pop.frag(i)
					batch[i].Rank, batch[i].Start, batch[i].Elapsed = i&3, clock, 1000
					clock += 1000
				}
				g.AddBatch(batch)
				a.Run(g, 4, opt)
			}
			var p *prepElem
			for _, p = range a.preps {
			}
			segs := 0
			for c := range p.store.spans {
				segs += len(p.store.spans[c].segs)
			}
			if segs < 5 {
				t.Fatalf("%d segments; the appends were meant to leave at least 5", segs)
			}
			var out elemOut
			p.window(0, clock, &out) // warm the band scratch
			if avg := testing.AllocsPerRun(20, func() { p.window(0, clock, &out) }); avg != 2 {
				t.Fatalf("a warm window over %d segments allocated %.1f times; want 2", segs, avg)
			}
			if avg := testing.AllocsPerRun(20, func() { p.window(-2, -1, &out) }); avg != 0 {
				t.Fatalf("an empty window allocated %.1f times; want 0", avg)
			}
		})
	}
}
