package detect

import (
	"fmt"
	"math/rand"
	"testing"

	"vapro/internal/obs"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// TestSampleStoreHatchEquivalenceFuzz pins the chunked-store
// representation bit-identical to the flat incremental one: the same
// computation-heavy schedule runs through a store-backed analyzer, a
// flat incremental analyzer (DisableSampleStore — the escape hatch),
// and a cold batch analyzer, and all three must agree exactly on every
// burst. The schedules skew toward Comp-only edges so the store path
// carries most elements, which the StoreAppends tally asserts.
func TestSampleStoreHatchEquivalenceFuzz(t *testing.T) {
	schedules := 60
	if testing.Short() {
		schedules = 15
	}
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("sched%03d", sched), func(t *testing.T) {
			t.Parallel()
			runStoreHatchSchedule(t, int64(9300+sched))
		})
	}
}

func runStoreHatchSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ranks := 2 + rng.Intn(3)

	opt := DefaultOptions()
	opt.Window = sim.Duration(1+rng.Intn(15)) * sim.Millisecond
	opt.Threshold = []float64{0.7, 0.85, 0.95}[rng.Intn(3)]
	opt.Parallelism = rng.Intn(3)
	if rng.Intn(4) == 0 {
		opt.Cluster.MinFragments = 2
	}

	g := stg.New()
	store := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	store.SetMetrics(met)
	flat := NewAnalyzer()
	defer func() {
		if met.StoreAppends.Load() == 0 {
			t.Errorf("store path never appended a sample (seed %d)", seed)
		}
	}()

	clock := make([]int64, ranks)
	edges := []trace.EdgeKey{{From: 1, To: 2}, {From: 2, To: 3}}

	bursts := 4 + rng.Intn(4)
	for b := 0; b < bursts; b++ {
		n := 5 + rng.Intn(60)
		batch := make([]trace.Fragment, 0, n)
		for i := 0; i < n; i++ {
			rank := rng.Intn(ranks)
			if rng.Intn(12) == 0 {
				clock[rank] += int64(rng.Intn(30)) * 1_000_000
			}
			el := int64(200_000 + rng.Intn(2_000_000))
			ek := edges[rng.Intn(len(edges))]
			f := trace.Fragment{
				Rank: rank, Kind: trace.Comp, From: ek.From, State: ek.To,
				Start: clock[rank], Elapsed: el,
			}
			switch rng.Intn(4) {
			case 0: // zero-workload snippets
			case 1: // dense ties straddling the cut threshold
				f.Counters.TotIns = uint64(1 + rng.Intn(4))
			default:
				class := uint64(1 + rng.Intn(3))
				f.Counters.TotIns = class*100_000 + uint64(rng.Intn(7000))
			}
			clock[rank] += el
			batch = append(batch, f)
		}
		g.AddBatch(batch)

		fopt := opt
		fopt.DisableSampleStore = true
		bopt := opt
		bopt.DisableIncremental = true

		var got, hatch, want *Result
		if rng.Intn(2) == 0 {
			ws := int64(rng.Intn(30)) * 1_000_000
			we := ws + int64(5+rng.Intn(50))*1_000_000
			got = store.RunWindow(g, ranks, opt, ws, we)
			hatch = flat.RunWindow(g, ranks, fopt, ws, we)
			want = NewAnalyzer().RunWindow(g, ranks, bopt, ws, we)
		} else {
			got = store.Run(g, ranks, opt)
			hatch = flat.Run(g, ranks, fopt)
			want = NewAnalyzer().Run(g, ranks, bopt)
		}
		if !equalResults(got, want) {
			t.Fatalf("burst %d: store-backed result diverged from batch", b)
		}
		if !equalResults(hatch, want) {
			t.Fatalf("burst %d: DisableSampleStore result diverged from batch", b)
		}
	}
}

// TestSampleStoreHatchMidRun flips DisableSampleStore on an analyzer
// that already holds store-backed preps: the hatch must not serve the
// store representation (it forces a flat rebuild), and flipping back
// must re-enable the store. Results stay identical throughout.
func TestSampleStoreHatchMidRun(t *testing.T) {
	g := stg.New()
	a := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	a.SetMetrics(met)
	opt := DefaultOptions()
	opt.Window = 5 * sim.Millisecond

	rng := rand.New(rand.NewSource(7))
	clock := make([]int64, 3)
	feed := func() {
		var batch []trace.Fragment
		for i := 0; i < 40; i++ {
			rank := rng.Intn(3)
			el := int64(500_000 + rng.Intn(700_000))
			batch = append(batch, trace.Fragment{
				Rank: rank, Kind: trace.Comp, From: 1, State: 2,
				Start: clock[rank], Elapsed: el,
				Counters: trace.CountersView{TotIns: 300_000 + uint64(rng.Intn(4000))},
			})
			clock[rank] += el
		}
		g.AddBatch(batch)
	}
	check := func(o Options, stage string) {
		got := a.Run(g, 3, o)
		bopt := o
		bopt.DisableIncremental = true
		want := NewAnalyzer().Run(g, 3, bopt)
		if !equalResults(got, want) {
			t.Fatalf("%s: result diverged from batch", stage)
		}
	}

	feed()
	check(opt, "store warmup")
	if met.StoreAppends.Load() == 0 {
		t.Fatal("store path did not engage")
	}

	hatch := opt
	hatch.DisableSampleStore = true
	feed()
	check(hatch, "hatch flip")

	feed()
	check(opt, "store re-enable")
	// The flat prep stays warm across the re-enable (no forced rebuild
	// in that direction); one more growth step keeps everything exact.
	feed()
	check(opt, "post re-enable growth")
}

// TestSampleStoreRebuildsLeaveNothingDead drives an edge whose head
// clusters keep re-forming (each burst's smaller norms move the greedy
// cut) beside a large stable cluster. Every re-formed cluster re-points
// its members under a fresh id; the store must stay exact, keep exactly
// one entry per fragment, and never need a rebuild — there is no dead
// state to accumulate.
func TestSampleStoreRebuildsLeaveNothingDead(t *testing.T) {
	g := stg.New()
	a := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	a.SetMetrics(met)
	opt := DefaultOptions()
	opt.Window = 5 * sim.Millisecond
	opt.Cluster.MinFragments = 2

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
	if st == nil {
		t.Fatal("edge is not store-backed")
	}
	if int(st.nextID) <= len(st.ids) {
		t.Fatalf("no cluster was ever re-formed (nextID=%d, clusters=%d)", st.nextID, len(st.ids))
	}
	if len(st.refs) != p.nfrags || p.nfrags != g.NumFragments() {
		t.Fatalf("store holds %d entries for %d fragments (graph: %d)", len(st.refs), p.nfrags, g.NumFragments())
	}
	indexed := 0
	for i := range st.spans.segs {
		indexed += len(st.spans.segs[i].pos)
	}
	if indexed != p.nfrags {
		t.Fatalf("span index holds %d entries for %d fragments", indexed, p.nfrags)
	}
}

// TestSampleStoreAppendAllocs pins the store's append path: advancing
// a warm element by a 4096-fragment burst (and analyzing a window that
// selects none of it) must cost a small constant number of allocations
// — columns and scratch, never anything per fragment.
func TestSampleStoreAppendAllocs(t *testing.T) {
	const n = 4096
	g := stg.New()
	a := NewAnalyzer()
	opt := DefaultOptions()
	var clock int64
	burst := make([]trace.Fragment, n)
	feed := func() {
		for i := range burst {
			burst[i] = trace.Fragment{
				Rank: i & 3, Kind: trace.Comp, From: 1, State: 2,
				Start: clock, Elapsed: 1000,
				Counters: trace.CountersView{TotIns: 1_000_000 + uint64(i&7)},
			}
			clock += 1000
		}
		g.AddBatch(burst)
	}
	feed()
	a.RunWindow(g, 4, opt, -2, -1)
	avg := testing.AllocsPerRun(10, func() {
		feed()
		a.RunWindow(g, 4, opt, -2, -1)
	})
	t.Logf("allocs per advance: %.1f", avg)
	if avg > 80 {
		t.Fatalf("a %d-fragment store advance allocated %.1f times; want <= 80", n, avg)
	}
}
