package cluster_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// sameClustering reports whether a and b partition the fragments alike:
// the same Clusters and Small, and the same cluster index (ClusterOf)
// for every fragment. Their labels may differ.
func sameClustering(a, b cluster.Result) bool {
	if a.Len() != b.Len() || a.Small != b.Small || !slices.Equal(a.Clusters, b.Clusters) {
		return false
	}
	for i := range a.Len() {
		if a.ClusterOf(i) != b.ClusterOf(i) {
			return false
		}
	}
	return true
}

// clusterOfAll reads every fragment's cluster index out of r.
func clusterOfAll(r cluster.Result) []int {
	out := make([]int, r.Len())
	for i := range out {
		out[i] = r.ClusterOf(i)
	}
	return out
}

// checkDelta verifies the claims a non-Full Delta makes about how `got`
// evolved from `prev`. A retired label was live; a grown one lives on
// and a born one is live now and was not, unless it was retired; every
// label of got is live. A resident whose label was not retired keeps
// it; a retired label's members moved to born ones. A run's Added is
// exactly the fragments new to its label: a grown run's appended
// members, a born run's whole membership. A surviving cluster keeps its
// seed and grows by its Added only.
func checkDelta(t *testing.T, sched, burst int, prev, got cluster.Result, d cluster.Delta) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("schedule %d burst %d: "+format, append([]any{sched, burst}, args...)...)
	}
	live := func(r cluster.Result, l int) bool { return l < r.Labels() && r.Index(l) >= 0 }
	retired := map[int]bool{}
	for _, l := range d.Retired {
		if !live(prev, l) || retired[l] {
			fail("retires label %d, which no cluster held", l)
		}
		retired[l] = true
	}
	runs := map[int][]int32{} // by label: the members the delta says are new to it
	born := map[int]bool{}
	for _, r := range d.Born {
		if _, dup := runs[r.Label]; dup || !live(got, r.Label) || live(prev, r.Label) && !retired[r.Label] {
			fail("born label %d is not a fresh live one", r.Label)
		}
		runs[r.Label], born[r.Label] = r.Added, true
	}
	for _, r := range d.Grown {
		if _, dup := runs[r.Label]; dup || !live(prev, r.Label) || !live(got, r.Label) || retired[r.Label] {
			fail("grown label %d is not a surviving one", r.Label)
		}
		runs[r.Label] = r.Added
	}
	want := map[int][]int32{}
	for m := range got.Len() {
		l := got.LabelOf(m)
		if !live(got, l) {
			fail("fragment %d holds label %d, which no cluster holds", m, l)
		}
		if m < prev.Len() {
			if pl := prev.LabelOf(m); !retired[pl] {
				if l != pl {
					fail("resident %d moved from label %d to %d", m, pl, l)
				}
				continue
			}
			if !born[l] {
				fail("resident %d of retired label %d moved to label %d, which was not born", m, prev.LabelOf(m), l)
			}
		}
		want[l] = append(want[l], int32(m))
	}
	for l, added := range runs {
		added = slices.Clone(added)
		slices.Sort(added)
		if !slices.Equal(added, want[l]) {
			fail("label %d added %v, want %v", l, added, want[l])
		}
		delete(want, l)
	}
	for l, ms := range want {
		fail("label %d gained %v, which the delta does not list", l, ms)
	}
	for l := range prev.Labels() {
		if !live(prev, l) || retired[l] {
			continue
		}
		pc, gc := prev.Clusters[prev.Index(l)], got.Clusters[got.Index(l)]
		if gc.Seed != pc.Seed || gc.SeedNorm != pc.SeedNorm || gc.Size != pc.Size+len(runs[l]) {
			fail("label %d: cluster %+v is not %+v plus its Added", l, gc, pc)
		}
	}
	for l := range born {
		if got.Clusters[got.Index(l)].Size != len(runs[l]) {
			fail("born label %d: size %d, %d members", l, got.Clusters[got.Index(l)].Size, len(runs[l]))
		}
	}
}

// TestIncrementalEquivalenceFuzz pins the tentpole guarantee: across
// randomized append schedules — bursts of varying size, interleaved
// ranks, out-of-order starts, outage gaps, dense norm ties, values
// straddling the 5% boundary, zero-norm fragments, occasional non-1-D
// arrivals, stale reads, and epoch-bump rebases — the incremental path
// returns results identical to cluster.Run
// through ClusterOf (sameClustering) on
// the same fragment set, and its Deltas accurately describe the
// evolution.
func TestIncrementalEquivalenceFuzz(t *testing.T) {
	schedules := 1200
	if testing.Short() {
		schedules = 200
	}
	for s := 0; s < schedules; s++ {
		rng := rand.New(rand.NewSource(int64(7919*s + 13)))
		opt := cluster.Options{
			Threshold:    []float64{0, 0.05, 0.2}[rng.Intn(3)],
			MinFragments: []int{0, 2, 5}[rng.Intn(3)],
		}
		if rng.Intn(10) == 0 {
			opt.UseExtraMetrics = true // 2-D vectors: rides the multi-D delta path
		}
		c := cluster.NewCache()
		key := cluster.EdgeKey(trace.EdgeKey{From: 1, To: 2})
		frags := make([]trace.Fragment, 0, 512)
		g := stg.Gen{}
		now := int64(0)
		var prev cluster.Result
		havePrev := false
		bursts := 2 + rng.Intn(6)
		for b := 0; b < bursts; b++ {
			if rng.Intn(12) == 0 {
				now += int64(rng.Intn(1_000_000)) // outage gap: virtual time jumps
			}
			n := 1 + rng.Intn(40)
			for i := 0; i < n; i++ {
				f := trace.Fragment{
					Kind:    trace.Comp,
					Rank:    rng.Intn(8),
					Start:   now + int64(rng.Intn(1000)) - 500, // out-of-order arrivals
					Elapsed: int64(rng.Intn(200)),
				}
				switch rng.Intn(6) {
				case 0:
					f.Counters.TotIns = 0
				case 1:
					f.Counters.TotIns = uint64(1 + rng.Intn(4)) // dense ties
				default:
					class := uint64(1+rng.Intn(5)) * 100_000
					f.Counters.TotIns = class + uint64(rng.Intn(7_000)) // straddles 5%
				}
				if rng.Intn(40) == 0 {
					f.Kind = trace.Comm
					f.Args = trace.Args{Op: trace.Op("Send"), Bytes: 1024}
				}
				frags = append(frags, f)
				now += int64(rng.Intn(50))
			}
			g.Count = uint64(len(frags))
			got, d := c.RunInc(key, g, trace.LogOf(frags), opt)
			want := cluster.Run(trace.LogOf(frags), opt)
			if !sameClustering(got, want) {
				t.Fatalf("schedule %d burst %d (n=%d, opt=%+v): incremental clustering diverges from batch",
					s, b, len(frags), opt)
			}
			if !d.Full && havePrev {
				checkDelta(t, s, b, prev, got, d)
			}
			prev, havePrev = got, true

			if rng.Intn(8) == 0 && len(frags) > 5 {
				// A stale read (older watermark) is answered correctly
				// and must not corrupt the entry for later advances.
				m := 1 + rng.Intn(len(frags)-1)
				sg := stg.Gen{Epoch: g.Epoch, Count: uint64(m)}
				sres := c.Run(key, sg, trace.LogOf(frags[:m]), opt)
				if !sameClustering(sres, cluster.Run(trace.LogOf(frags[:m]), opt)) {
					t.Fatalf("schedule %d burst %d: stale read at %d diverges", s, b, m)
				}
			}
			if rng.Intn(10) == 0 {
				// Rebase: wholesale replacement in a new order. The
				// epoch bump forces the batch path.
				rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
				g.Epoch++
				got, d := c.RunInc(key, g, trace.LogOf(frags), opt)
				if !d.Full {
					t.Fatalf("schedule %d burst %d: rebase did not take the batch path", s, b)
				}
				if !sameClustering(got, cluster.Run(trace.LogOf(frags), opt)) {
					t.Fatalf("schedule %d burst %d: post-rebase clustering diverges", s, b)
				}
				prev = got
			}
		}
	}
}

func TestCacheStaleGenerationRejected(t *testing.T) {
	c := cluster.NewCache()
	opt := cluster.DefaultOptions()
	frags := make([]trace.Fragment, 0, 20)
	for i := 0; i < 20; i++ {
		frags = append(frags, cacheFrag(uint64(100_000+i*200)))
	}
	key := cluster.VertexKey(3)
	c.Run(key, gen(20), trace.LogOf(frags), opt)

	res := c.Run(key, gen(12), trace.LogOf(frags[:12]), opt)
	if !sameClustering(res, cluster.Run(trace.LogOf(frags[:12]), opt)) {
		t.Fatal("stale lookup returned a wrong clustering")
	}
	if got := c.StaleRejects(); got != 1 {
		t.Fatalf("stale rejects: %d, want 1", got)
	}
	// The fresher entry survived: the original watermark still hits.
	c.Run(key, gen(20), trace.LogOf(frags), opt)
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d after stale read, want 1/1", hits, misses)
	}
}

// TestCacheEmptyElementExtraMetrics: an element first seen empty must
// not advance on the 1-D path when UseExtraMetrics makes its
// computation vectors 2-D (found by detect's FuzzAnalyzerEquivalence:
// two fragments 5 % apart in TOT_INS but farther in the plane shared a
// cluster).
func TestCacheEmptyElementExtraMetrics(t *testing.T) {
	c := cluster.NewCache()
	opt := cluster.DefaultOptions()
	opt.UseExtraMetrics = true
	frags := []trace.Fragment{cacheFrag(105_000), cacheFrag(100_000)}
	for i := range frags {
		frags[i].Counters.LoadStores = frags[i].Counters.TotIns / 3
	}
	key := cluster.EdgeKey(trace.EdgeKey{From: 1, To: 2})
	for n := 0; n <= len(frags); n++ {
		got, _ := c.RunInc(key, gen(n), trace.LogOf(frags[:n]), opt)
		if want := cluster.Run(trace.LogOf(frags[:n]), opt); !sameClustering(got, want) {
			t.Fatalf("%d fragments: incremental %+v, batch %+v", n, got, want)
		}
	}
}

// TestCacheGeometricChainSplices drives a worst-case append: norms form
// a geometric chain of 2-element clusters (ratio 1.04: each value is
// within 5% of its neighbor, pairs are not), so inserting one value
// below the minimum re-pairs EVERY cluster — the cascade never
// re-aligns with an old cut. Even a fully dirty update splices (a few
// linear passes, cheaper than Run's re-sort), and the result stays
// identical to batch.
func TestCacheGeometricChainSplices(t *testing.T) {
	c := cluster.NewCache()
	opt := cluster.DefaultOptions()
	frags := make([]trace.Fragment, 0, 201)
	v := 100_000.0
	for i := 0; i < 200; i++ {
		frags = append(frags, cacheFrag(uint64(v+0.5)))
		v *= 1.04
	}
	key := cluster.VertexKey(9)
	base := c.Run(key, gen(200), trace.LogOf(frags), opt)
	if len(base.Clusters) != 100 {
		t.Fatalf("geometric chain clustered into %d clusters, want 100 pairs", len(base.Clusters))
	}
	frags = append(frags, cacheFrag(96_153)) // just below the old minimum, within 5% of it
	res, d := c.RunInc(key, gen(201), trace.LogOf(frags), opt)
	if !sameClustering(res, cluster.Run(trace.LogOf(frags), opt)) {
		t.Fatal("spliced clustering diverges from batch")
	}
	if d.Full {
		t.Fatal("fully dirty advance fell back to a full re-cluster")
	}
	incHits, incFallbacks, _ := c.IncStats()
	if incHits != 1 || incFallbacks != 0 {
		t.Fatalf("inc stats %d/%d, want 1 hit / 0 fallbacks", incHits, incFallbacks)
	}
}

// TestCacheConcurrentIncrementalRace exercises concurrent incremental
// updates against cache reads at mixed (including stale) generations
// under the race detector; every returned clustering must match the
// batch path on the same snapshot.
func TestCacheConcurrentIncrementalRace(t *testing.T) {
	const total, step = 2000, 40
	c := cluster.NewCache()
	opt := cluster.DefaultOptions()
	rng := rand.New(rand.NewSource(42))
	frags := make([]trace.Fragment, 0, total)
	for i := 0; i < total; i++ {
		frags = append(frags, cacheFrag(uint64(1+rng.Intn(6))*100_000+uint64(rng.Intn(4_000))))
	}
	key := cluster.EdgeKey(trace.EdgeKey{From: 4, To: 5})
	otherKey := cluster.VertexKey(77)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: advances the element one burst at a time
		defer wg.Done()
		for n := step; n <= total; n += step {
			got, _ := c.RunInc(key, gen(n), trace.LogOf(frags[:n]), opt)
			if got.Len() != n {
				t.Errorf("writer at %d: %d assignments", n, got.Len())
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) { // readers: random snapshots, often stale
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				n := step * (1 + rng.Intn(total/step))
				got := c.Run(key, gen(n), trace.LogOf(frags[:n]), opt)
				if !sameClustering(got, cluster.Run(trace.LogOf(frags[:n]), opt)) {
					t.Errorf("reader snapshot %d diverges from batch", n)
					return
				}
				c.Run(otherKey, gen(1), trace.LogOf(frags[:1]), opt) // uncontended element stays hot
			}
		}(int64(100 + r))
	}
	wg.Wait()
}

// mdClass is one workload class of the multi-D fuzz palette: the exact
// fragment payload appended fragments are drawn from (possibly with
// jitter), so schedules exercise grown clusters, new seeds, and steals.
type mdClass struct {
	kind trace.Kind
	tot  uint64
	args trace.Args
}

func (cl mdClass) frag(rng *rand.Rand, jitter bool) trace.Fragment {
	f := trace.Fragment{Kind: cl.kind, Rank: rng.Intn(8), Elapsed: int64(rng.Intn(200))}
	if cl.kind == trace.Comp {
		f.Counters.TotIns = cl.tot
		f.Counters.LoadStores = cl.tot / 3
		if jitter {
			f.Counters.TotIns += uint64(rng.Intn(1 + int(cl.tot/50)))
		}
		return f
	}
	f.Args = cl.args
	if jitter && cl.args.Bytes > 0 {
		f.Args.Bytes += rng.Intn(1 + cl.args.Bytes/50) // straddles the 5% band
	}
	return f
}

func mdPalette(rng *rand.Rand) []mdClass {
	n := 3 + rng.Intn(6)
	pal := make([]mdClass, 0, n)
	ops := []trace.OpSym{trace.Op("Send"), trace.Op("Recv"), trace.Op("Allreduce"),
		trace.Op("Bcast"), trace.Op("write"), trace.Op("read")}
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			pal = append(pal, mdClass{kind: trace.Comp, tot: uint64(1+rng.Intn(5)) * 100_000})
		case 1:
			pal = append(pal, mdClass{kind: trace.IO, args: trace.Args{
				Op: ops[4+rng.Intn(2)], Bytes: 4096 << rng.Intn(4), FD: 3 + rng.Intn(4), Mode: rng.Intn(3),
			}})
		default:
			pal = append(pal, mdClass{kind: trace.Comm, args: trace.Args{
				Op: ops[rng.Intn(4)], Bytes: 1024 * (1 + rng.Intn(64)),
				Peer: -1 + rng.Intn(6), Tag: rng.Intn(4),
			}})
		}
	}
	return pal
}

// TestIncrementalMultiDEquivalenceFuzz is the multi-D tentpole pin:
// across randomized append schedules over comm/IO/mixed-kind elements —
// palette classes with jitter straddling the 5% band, zero-byte ops,
// novel vectors that seed new clusters mid-order (including ones that
// steal residents, which the advance re-cuts), extra-metrics 2-D
// computation vectors, stale reads, and epoch rebases — the incremental
// path returns results identical to cluster.Run
// through ClusterOf (sameClustering)
// on the same fragment set and its Deltas accurately describe the
// evolution.
func TestIncrementalMultiDEquivalenceFuzz(t *testing.T) {
	schedules := 1100
	if testing.Short() {
		schedules = 250
	}
	for s := 0; s < schedules; s++ {
		rng := rand.New(rand.NewSource(int64(6007*s + 29)))
		opt := cluster.Options{
			Threshold:       []float64{0, 0.05, 0.2}[rng.Intn(3)],
			MinFragments:    []int{0, 2, 5}[rng.Intn(3)],
			UseExtraMetrics: rng.Intn(3) == 0,
		}
		pal := mdPalette(rng)
		c := cluster.NewCache()
		key := cluster.VertexKey(uint64(s))
		frags := make([]trace.Fragment, 0, 512)
		g := stg.Gen{}
		var prev cluster.Result
		havePrev := false
		bursts := 2 + rng.Intn(6)
		for b := 0; b < bursts; b++ {
			n := 1 + rng.Intn(40)
			for i := 0; i < n; i++ {
				var f trace.Fragment
				switch {
				case rng.Intn(12) == 0:
					// Novel vector: may seed a new cluster mid-order or
					// steal residents (a re-cut).
					f = trace.Fragment{Kind: trace.Comm, Rank: rng.Intn(8),
						Args: trace.Args{Op: trace.Op("Send"), Bytes: rng.Intn(70_000), Peer: -1 + rng.Intn(6)}}
				case rng.Intn(20) == 0:
					f = trace.Fragment{Kind: trace.Comm, Rank: rng.Intn(8)} // zero-byte: zero-ish norm
				default:
					f = pal[rng.Intn(len(pal))].frag(rng, rng.Intn(3) > 0)
				}
				frags = append(frags, f)
			}
			g.Count = uint64(len(frags))
			got, d := c.RunInc(key, g, trace.LogOf(frags), opt)
			want := cluster.Run(trace.LogOf(frags), opt)
			if !sameClustering(got, want) {
				t.Fatalf("schedule %d burst %d (n=%d, opt=%+v): multi-D incremental diverges from batch",
					s, b, len(frags), opt)
			}
			if !d.Full && havePrev {
				checkDelta(t, s, b, prev, got, d)
			}
			prev, havePrev = got, true

			if rng.Intn(8) == 0 && len(frags) > 5 {
				m := 1 + rng.Intn(len(frags)-1)
				sg := stg.Gen{Epoch: g.Epoch, Count: uint64(m)}
				if !sameClustering(c.Run(key, sg, trace.LogOf(frags[:m]), opt), cluster.Run(trace.LogOf(frags[:m]), opt)) {
					t.Fatalf("schedule %d burst %d: stale multi-D read at %d diverges", s, b, m)
				}
			}
			if rng.Intn(10) == 0 {
				rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
				g.Epoch++
				got, d := c.RunInc(key, g, trace.LogOf(frags), opt)
				if !d.Full {
					t.Fatalf("schedule %d burst %d: multi-D rebase did not take the batch path", s, b)
				}
				if !sameClustering(got, cluster.Run(trace.LogOf(frags), opt)) {
					t.Fatalf("schedule %d burst %d: post-rebase multi-D clustering diverges", s, b)
				}
				prev = got
			}
		}
	}
}

// TestIncrementalMultiDSteadyState pins the perf contract behind
// BenchmarkMonitorTickMultiD: a resident multi-D population whose
// appends repeat existing workload classes advances incrementally on
// EVERY burst — no fallback and no re-cut, so no advance reads a label —
// because each appended fragment is absorbed by the cluster whose band
// covers it.
func TestIncrementalMultiDSteadyState(t *testing.T) {
	for s := 0; s < 40; s++ {
		rng := rand.New(rand.NewSource(int64(331*s + 7)))
		opt := cluster.DefaultOptions()
		pal := mdPalette(rng)
		c := cluster.NewCache()
		key := cluster.VertexKey(uint64(1000 + s))
		frags := make([]trace.Fragment, 0, 4096)
		for i := 0; i < 1500; i++ {
			frags = append(frags, pal[rng.Intn(len(pal))].frag(rng, false))
		}
		g := stg.Gen{Count: uint64(len(frags))}
		c.RunInc(key, g, trace.LogOf(frags), opt)
		advances := 30
		for b := 0; b < advances; b++ {
			n := 1 + rng.Intn(64)
			for i := 0; i < n; i++ {
				frags = append(frags, pal[rng.Intn(len(pal))].frag(rng, false))
			}
			g.Count = uint64(len(frags))
			got, d := c.RunInc(key, g, trace.LogOf(frags), opt)
			if d.Full {
				t.Fatalf("schedule %d advance %d: steady-state multi-D burst fell back to batch", s, b)
			}
			if !sameClustering(got, cluster.Run(trace.LogOf(frags), opt)) {
				t.Fatalf("schedule %d advance %d: steady-state multi-D diverges", s, b)
			}
		}
		if incHits, incFallbacks, recuts := c.IncStats(); incHits != uint64(advances) || incFallbacks != 0 || recuts != 0 {
			t.Fatalf("schedule %d: incHits=%d fallbacks=%d re-cuts=%d, want %d/0/0",
				s, incHits, incFallbacks, recuts, advances)
		}
	}
}

// TestMultiDAdvanceAllocsPinned pins the steady-state allocation count
// of one grown multi-D advance: the walk reads no resident but the
// seeds it absorbs into, and with label chunks written in place past
// every held Result an advance allocates only what it hands out — the
// Result's cluster slice, the Delta's run list and the backing of its
// Added lists — and nothing proportional to the resident population. It reads 3; the
// budget leaves room for the race detector, whose sync.Pool drops
// entries at random (4–6).
func TestMultiDAdvanceAllocsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pal := mdPalette(rng)
	opt := cluster.DefaultOptions()
	c := cluster.NewCache()
	key := cluster.VertexKey(99)
	log := trace.NewLog(nil)
	grow := func(n int) stg.Gen {
		for i := 0; i < n; i++ {
			f := pal[rng.Intn(len(pal))].frag(rng, false)
			log.Append(&f)
		}
		return stg.Gen{Count: uint64(log.Len())}
	}
	c.RunInc(key, grow(50_000), log.View(), opt)
	// Warm the label chunks and their table past their first few
	// allocations so the measured advances see the amortized state.
	for b := 0; b < 32; b++ {
		c.RunInc(key, grow(8), log.View(), opt)
	}
	allocs := testing.AllocsPerRun(24, func() {
		if _, d := c.RunInc(key, grow(8), log.View(), opt); d.Full {
			t.Fatal("measured advance fell back to batch")
		}
	})
	if allocs > 8 {
		t.Fatalf("grown multi-D advance allocates %.0f times, budget 8", allocs)
	}
}

// TestWarmAdvanceAllocsIndependentOfBatch: an advance's scratch (the
// appended norms and radix keys, the appended vectors, the walk's list
// of middle clusters) is recycled through the advances' scratch pool,
// so a warm advance allocates the same number of times whether it
// appends 64 fragments or 4 096, on the 1-D path and on the multi-D one,
// and only for what it hands out: the Result's cluster slice, the
// Delta's run list and the backing of its Added lists (label chunks
// come a slab ahead, so they allocate rarely whatever the batch).
// Every view is taken before measuring, so the log's own chunk
// allocations stay out of the count.
func TestWarmAdvanceAllocsIndependentOfBatch(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("clusters 2 × 2 × 200 k resident fragments; counts need the pool's reuse")
	}
	const resident, warm, runs = 200_000, 4, 20
	pal := []mdClass{
		{kind: trace.Comm, args: trace.Args{Op: trace.Op("Allreduce"), Bytes: 4096, Peer: -1}},
		{kind: trace.Comm, args: trace.Args{Op: trace.Op("Send"), Bytes: 65536, Peer: 3, Tag: 1}},
		{kind: trace.IO, args: trace.Args{Op: trace.Op("write"), Bytes: 1 << 20, FD: 3}},
		{kind: trace.Comp, tot: 300_000},
	}
	planes := []struct {
		name   string
		budget float64
		draw   func(rng *rand.Rand) trace.Fragment
	}{
		{"1-D", 8, func(rng *rand.Rand) trace.Fragment {
			return cacheFrag(uint64(1+rng.Intn(4))*1_000_000 + uint64(rng.Intn(1000)))
		}},
		{"multi-D", 16, func(rng *rand.Rand) trace.Fragment { return pal[rng.Intn(len(pal))].frag(rng, false) }},
	}
	for _, plane := range planes {
		var counts []float64
		for _, k := range []int{64, 4096} {
			rng := rand.New(rand.NewSource(3))
			log := trace.NewLog(nil)
			grow := func(n int) trace.LogView {
				for i := 0; i < n; i++ {
					f := plane.draw(rng)
					log.Append(&f)
				}
				return log.View()
			}
			c := cluster.NewCache()
			key := cluster.VertexKey(1)
			advance := func(v trace.LogView) {
				if _, d := c.RunInc(key, gen(v.Len()), v, cluster.DefaultOptions()); d.Full {
					t.Fatalf("%s k=%d: advance to %d fell back to batch", plane.name, k, v.Len())
				}
			}
			first := grow(resident)
			views := make([]trace.LogView, warm+runs+1) // AllocsPerRun adds one warm-up call
			for i := range views {
				views[i] = grow(k)
			}
			c.RunInc(key, gen(first.Len()), first, cluster.DefaultOptions())
			for _, v := range views[:warm] {
				advance(v)
			}
			next := warm
			counts = append(counts, testing.AllocsPerRun(runs, func() {
				advance(views[next])
				next++
			}))
		}
		if counts[0] != counts[1] || counts[0] > plane.budget {
			t.Fatalf("%s: a warm advance allocates %.0f times at k=64, %.0f at k=4096; budget %.0f at both",
				plane.name, counts[0], counts[1], plane.budget)
		}
		t.Logf("%s: %.0f allocations per warm advance at k=64 and k=4096", plane.name, counts[0])
	}
}

// TestRunAllocsPinned pins the batch hot path's allocation count: the
// scratch pool keeps the per-call cost to the Result slices themselves.
func TestRunAllocsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	frags := make([]trace.Fragment, 0, 8192)
	for i := 0; i < 8192; i++ {
		frags = append(frags, cacheFrag(uint64(1+rng.Intn(6))*100_000))
	}
	opt := cluster.DefaultOptions()
	log := trace.LogOf(frags)
	cluster.Run(log, opt) // warm the scratch pool
	allocs := testing.AllocsPerRun(10, func() { _ = cluster.Run(log, opt) })
	if allocs > 96 {
		t.Fatalf("cluster.Run allocates %.0f times per call, budget 96", allocs)
	}
}
