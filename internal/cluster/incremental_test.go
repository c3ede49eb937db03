package cluster_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// checkDelta verifies the structural claims a non-Full Delta makes
// about how `got` evolved from `prev`. A dirty run's Added must be
// exactly the fragments whose new Assign is its cluster and which are
// new to it: for a grown run the members its old cluster did not have
// (and every old member must stay, so the sizes add up), for a rebuilt
// run every member.
func checkDelta(t *testing.T, sched, burst int, prev, got cluster.Result, d cluster.Delta) {
	t.Helper()
	if d.Prefix < 0 || d.Prefix > d.TailNew || d.TailNew > len(got.Clusters) ||
		d.TailOld > len(prev.Clusters) || d.TailNew-d.Prefix != len(d.Dirty) ||
		len(got.Clusters)-d.TailNew != len(prev.Clusters)-d.TailOld {
		t.Fatalf("schedule %d burst %d: inconsistent delta %+v (old %d, new %d clusters)",
			sched, burst, d, len(prev.Clusters), len(got.Clusters))
	}
	for i := 0; i < d.Prefix; i++ {
		if !reflect.DeepEqual(got.Clusters[i], prev.Clusters[i]) {
			t.Fatalf("schedule %d burst %d: prefix cluster %d changed", sched, burst, i)
		}
	}
	for i := d.TailNew; i < len(got.Clusters); i++ {
		if !reflect.DeepEqual(got.Clusters[i], prev.Clusters[i-d.TailNew+d.TailOld]) {
			t.Fatalf("schedule %d burst %d: tail cluster %d changed", sched, burst, i)
		}
	}
	want := make([][]int32, len(d.Dirty)) // by dirty run: the members new to it
	for m, ci := range got.Assign {
		di := int(ci) - d.Prefix
		if di < 0 || di >= len(d.Dirty) {
			continue
		}
		if o := d.Dirty[di].OldIndex; o >= 0 && m < len(prev.Assign) && int(prev.Assign[m]) == o {
			continue
		}
		want[di] = append(want[di], int32(m))
	}
	for di, dr := range d.Dirty {
		if dr.OldIndex >= 0 {
			if dr.OldIndex < d.Prefix || dr.OldIndex >= d.TailOld {
				t.Fatalf("schedule %d burst %d: grown run references preserved cluster %d", sched, burst, dr.OldIndex)
			}
			if got.Clusters[d.Prefix+di].Size != prev.Clusters[dr.OldIndex].Size+len(dr.Added) {
				t.Fatalf("schedule %d burst %d: dirty run %d is not old cluster %d plus Added",
					sched, burst, di, dr.OldIndex)
			}
		}
		added := slices.Clone(dr.Added)
		slices.Sort(added)
		if !slices.Equal(added, want[di]) {
			t.Fatalf("schedule %d burst %d: dirty run %d (old %d) added %v, want %v",
				sched, burst, di, dr.OldIndex, added, want[di])
		}
	}
}

// TestIncrementalEquivalenceFuzz pins the tentpole guarantee: across
// randomized append schedules — bursts of varying size, interleaved
// ranks, out-of-order starts, outage gaps, dense norm ties, values
// straddling the 5% boundary, zero-norm fragments, occasional non-1-D
// arrivals, stale reads, and epoch-bump rebases — the incremental path
// returns results bit-identical (reflect.DeepEqual) to cluster.Run on
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
			Threshold:     []float64{0, 0.05, 0.2}[rng.Intn(3)],
			MinFragments:  []int{0, 2, 5}[rng.Intn(3)],
			MaxDirtyRatio: []float64{0, 0.001, 0.25, 1.0}[rng.Intn(4)],
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
			if !reflect.DeepEqual(got, want) {
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
				if !reflect.DeepEqual(sres, cluster.Run(trace.LogOf(frags[:m]), opt)) {
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
				if !reflect.DeepEqual(got, cluster.Run(trace.LogOf(frags), opt)) {
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
	if !reflect.DeepEqual(res, cluster.Run(trace.LogOf(frags[:12]), opt)) {
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
		if want := cluster.Run(trace.LogOf(frags[:n]), opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d fragments: incremental %+v, batch %+v", n, got, want)
		}
	}
}

// TestCacheDirtyRatioFallback drives a worst-case append with a tiny
// MaxDirtyRatio: norms form a geometric chain of 2-element clusters
// (ratio 1.04: each value is within 5% of its neighbor, pairs are not),
// so inserting one value below the minimum re-pairs EVERY cluster — the
// cascade never re-aligns with an old cut. The splice must be abandoned
// for a full re-cluster, and the result stays identical.
func TestCacheDirtyRatioFallback(t *testing.T) {
	c := cluster.NewCache()
	opt := cluster.DefaultOptions()
	opt.MaxDirtyRatio = 0.01
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
	res := c.Run(key, gen(201), trace.LogOf(frags), opt)
	if !reflect.DeepEqual(res, cluster.Run(trace.LogOf(frags), opt)) {
		t.Fatal("fallback clustering diverges from batch")
	}
	incHits, incFallbacks := c.IncStats()
	if incHits != 0 || incFallbacks != 1 {
		t.Fatalf("inc stats %d/%d, want 0 hits / 1 fallback", incHits, incFallbacks)
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
			if len(got.Assign) != n {
				t.Errorf("writer at %d: %d assignments", n, len(got.Assign))
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
				if !reflect.DeepEqual(got, cluster.Run(trace.LogOf(frags[:n]), opt)) {
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
// restructure the partition and must fall back), extra-metrics 2-D
// computation vectors, stale reads, and epoch rebases — the incremental
// path returns results bit-identical (reflect.DeepEqual) to cluster.Run
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
			MaxDirtyRatio:   []float64{0, 0.25, 1.0}[rng.Intn(3)],
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
					// restructure the partition (steal fallback path).
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
			if !reflect.DeepEqual(got, want) {
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
				if !reflect.DeepEqual(c.Run(key, sg, trace.LogOf(frags[:m]), opt), cluster.Run(trace.LogOf(frags[:m]), opt)) {
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
				if !reflect.DeepEqual(got, cluster.Run(trace.LogOf(frags), opt)) {
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
// EVERY burst — zero fallbacks of any reason — because each appended
// fragment is absorbed by the cluster whose band covers it.
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
			if !reflect.DeepEqual(got, cluster.Run(trace.LogOf(frags), opt)) {
				t.Fatalf("schedule %d advance %d: steady-state multi-D diverges", s, b)
			}
		}
		incHits, incFallbacks := c.IncStats()
		multiD, dirtyR, _ := c.IncFallbackReasons()
		if incHits != uint64(advances) || incFallbacks != 0 || multiD != 0 || dirtyR != 0 {
			t.Fatalf("schedule %d: incHits=%d fallbacks=%d (multiD=%d dirty=%d), want %d/0/0/0",
				s, incHits, incFallbacks, multiD, dirtyR, advances)
		}
	}
}

// TestMultiDAdvanceAllocsPinned pins the steady-state allocation count
// of one grown multi-D advance: with the cached norms and order and the
// grow-only Assign backing, an advance allocates only the small
// per-delta bookkeeping — nothing proportional to the resident
// population.
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
	// Warm the grow-only backings past their first few geometric
	// doublings so the measured advances see the amortized state.
	for b := 0; b < 32; b++ {
		c.RunInc(key, grow(8), log.View(), opt)
	}
	allocs := testing.AllocsPerRun(24, func() {
		if _, d := c.RunInc(key, grow(8), log.View(), opt); d.Full {
			t.Fatal("measured advance fell back to batch")
		}
	})
	if allocs > 48 {
		t.Fatalf("grown multi-D advance allocates %.0f times, budget 48", allocs)
	}
}

// TestWarmAdvanceAllocsIndependentOfBatch: an advance's scratch (the
// merge's positions and radix keys, the appended vectors, the absorb
// flags, the 1-D run list) is recycled through the advances' scratch
// pool, so a warm advance allocates the same number of times whether it
// appends 64 fragments or 4 096, on the 1-D path and on the multi-D one,
// and only for what it hands out: the Result's cluster slice, the
// Delta's dirty list and the backing of its Added lists, the next cut
// table (and on the multi-D path the growth of its mid-cluster lists).
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
