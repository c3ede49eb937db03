package collector

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vapro/internal/detect"
	"vapro/internal/sim"
	"vapro/internal/trace"
)

// Sharded-vs-unsharded equivalence fuzz (the tentpole's bit-identity
// property): for every scripted delivery schedule and shard count, the
// tier's merged analysis must be bit-identical to unsharded references
// over the same delivered fragments —
//
//  1. every merged heat-map row equals the row a plain Pool computes
//     when fed exactly the rank's owning shard's deliveries (the
//     restricted reference), including staleness from sequence gaps;
//  2. the stitched region set equals the exported batch grower run
//     over the merged grid and samples;
//  3. at shard count 1 the entire Result (maps, samples, regions,
//     coverage) deep-equals a plain Pool.RunWindow.
//
// 25 seeds × shard counts {1,2,4,8} × misroute shares {0, 0.25} = 175
// scripted schedules (a single shard has nowhere to misroute), each
// with two overlapped windows so the warm merge carry is exercised. A
// misrouted batch lands on a non-owning shard's sink and on that
// shard's restricted reference, so property 1 pins the merge's owner
// filter: its samples never reach the rank's row. Its sequence
// accounting stays with the rank's owner on both sides (one sequence
// space per rank), so the outage sets the two sides mark agree.

type fuzzBatch struct {
	rank    int
	seq     uint64
	frags   []trace.Fragment
	deliver bool
}

// fuzzSchedule builds one scripted run: per-rank batch streams with
// skipped sequence numbers (transit loss → gaps), interleaved across
// ranks by the seeded RNG. Fragment starts are globally unique so
// every downstream sort order is total and the comparison is exact.
func fuzzSchedule(rng *rand.Rand, ranks int) []fuzzBatch {
	var perRank [][]fuzzBatch
	for r := 0; r < ranks; r++ {
		t := int64(r)
		var seq uint64
		var stream []fuzzBatch
		nBatches := 8 + rng.Intn(8)
		for b := 0; b < nBatches; b++ {
			n := 1 + rng.Intn(3)
			frags := make([]trace.Fragment, 0, n)
			for i := 0; i < n; i++ {
				el := int64(1+rng.Intn(4)) * 1000
				kind, from, state := trace.Comp, uint64(1), uint64(2)
				if rng.Intn(8) == 0 {
					kind, from, state = trace.IO, 2, 3
				}
				// Middle-third slowdown on a third of the ranks gives
				// the region grower something to find and stitch.
				if r%3 == 0 && t > 20_000 && t < 60_000 {
					el *= 2
				}
				frags = append(frags, trace.Fragment{
					Rank: r, Kind: kind, From: from, State: state,
					Start: t, Elapsed: el,
					Counters: trace.CountersView{TotIns: 1_000_000, Cycles: 500_000},
				})
				t += el
			}
			stream = append(stream, fuzzBatch{
				rank:    r,
				seq:     seq,
				frags:   frags,
				deliver: rng.Float64() >= 0.15,
			})
			seq++
		}
		perRank = append(perRank, stream)
	}
	// Interleave the per-rank streams in a random but seq-preserving
	// order (the wire delivers each rank's frames in order).
	var out []fuzzBatch
	heads := make([]int, ranks)
	remaining := 0
	for _, s := range perRank {
		remaining += len(s)
	}
	for remaining > 0 {
		r := rng.Intn(ranks)
		if heads[r] >= len(perRank[r]) {
			continue
		}
		out = append(out, perRank[r][heads[r]])
		heads[r]++
		remaining--
	}
	return out
}

// deliverTo mimics the wire server's sequence-then-consume path into
// any sink with a tracker.
func deliverTo(tr *SeqTracker, sink interface {
	ConsumeSized(rank int, frags []trace.Fragment, bytes int)
}, b fuzzBatch) {
	if !b.deliver {
		return
	}
	minStart, maxEnd := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range b.frags {
		if b.frags[i].Start < minStart {
			minStart = b.frags[i].Start
		}
		if e := b.frags[i].Start + b.frags[i].Elapsed; e > maxEnd {
			maxEnd = e
		}
	}
	deliver, _ := tr.Observe(b.rank, b.seq, minStart, maxEnd)
	if deliver {
		sink.ConsumeSized(b.rank, b.frags, len(b.frags)*64)
	}
}

// markGap books a skipped batch: the gap is realized when the next
// delivered frame for the rank is observed, exactly like the wire
// path. Nothing to do here — skipping Observe entirely IS the gap.

func fuzzOptions() Options {
	opt := DefaultOptions()
	opt.Period = 60 * sim.Microsecond
	opt.Overlap = 30 * sim.Microsecond
	opt.Detect.Window = 2 * sim.Microsecond
	opt.Detect.MinRegionCells = 1
	return opt
}

// regionOrder normalizes region order for comparison: LossNS sorting
// is unstable on ties, so both sides sort by a total key first.
func regionOrder(regs []detect.Region) []detect.Region {
	out := append([]detect.Region(nil), regs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.RankMin != b.RankMin {
			return a.RankMin < b.RankMin
		}
		if a.WinMin != b.WinMin {
			return a.WinMin < b.WinMin
		}
		return a.LossNS > b.LossNS
	})
	return out
}

func TestShardedEquivalenceFuzz(t *testing.T) {
	const ranks = 8
	shardCounts := []int{1, 2, 4, 8}
	windows := [][2]int64{{0, 60_000}, {30_000, 90_000}}
	for seed := 0; seed < 25; seed++ {
		for _, shards := range shardCounts {
			for _, misroute := range []float64{0, 0.25} {
				if shards == 1 && misroute > 0 {
					continue
				}
				shardedEquivalenceSchedule(t, seed, ranks, shards, misroute, windows)
			}
		}
	}
}

func shardedEquivalenceSchedule(t *testing.T, seed, ranks, shards int, misroute float64, windows [][2]int64) {
	t.Helper()
	schedule := fuzzSchedule(rand.New(rand.NewSource(int64(seed))), ranks)
	route := rand.New(rand.NewSource(int64(seed) + 1_000))
	opt := fuzzOptions()

	tier := NewShardedPool(ranks, shards, opt)
	if shards == 1 {
		forceMerge(tier)
	}
	sinks := make([]*ShardSink, shards)
	for s := 0; s < shards; s++ {
		sinks[s] = tier.WireSink(s)
	}
	// Restricted references: one plain pool per shard, fed only
	// that shard's deliveries; plus the full pool for shards=1.
	refs := make([]*Pool, shards)
	for s := 0; s < shards; s++ {
		refs[s] = NewPool(ranks, opt)
	}
	for _, b := range schedule {
		owner := tier.Owner(b.rank)
		dst := owner
		if shards > 1 && route.Float64() < misroute {
			dst = (owner + 1 + route.Intn(shards-1)) % shards
		}
		deliverTo(tier.Plane(owner).SeqState(), sinks[dst], b)
		deliverTo(refs[owner].SeqState(), refs[dst], b)
	}

	for wi, w := range windows {
		merged := tier.RunWindow(w[0], w[1])
		refRes := make([]*detect.Result, shards)
		for s := 0; s < shards; s++ {
			refRes[s] = refs[s].RunWindow(w[0], w[1])
		}
		compareRows(t, seed, shards, wi, tier, merged, refRes, ranks)
		compareRegions(t, seed, shards, wi, merged, opt.Detect)
		if shards == 1 {
			compareFull(t, seed, wi, merged, refRes[0])
		}
	}
	tier.Close()
	for _, p := range refs {
		p.Close()
	}
}

// forceMerge gives a one-plane pool a Merger, so its windows take the
// multi-plane path — the plane stops at its partial and the Merger
// completes it — where the pool would run the plane's full pass. The
// equivalence tests compare that merge of one partial, field by field
// (compareFull), with a plain pool's full pass.
func forceMerge(p *Pool) {
	p.merger = detect.NewMerger()
	p.merger.SetMetrics(p.met.Detect)
}

// compareRows: every merged heat-map row equals the restricted
// reference's row for the rank's owner, bit for bit, NaN beyond the
// reference's width.
func compareRows(t *testing.T, seed, shards, wi int, tier *Pool, merged *detect.Result, refRes []*detect.Result, ranks int) {
	t.Helper()
	for c := detect.Computation; c <= detect.IOClass; c++ {
		mh := merged.Maps[c]
		for s := 0; s < shards; s++ {
			if rh := refRes[s].Maps[c]; rh != nil && mh == nil {
				t.Fatalf("seed=%d shards=%d win=%d class=%v: reference %d has a map but merge does not", seed, shards, wi, c, s)
			}
		}
		if mh == nil {
			continue
		}
		for r := 0; r < ranks; r++ {
			rh := refRes[tier.Owner(r)].Maps[c]
			for w := 0; w < mh.Windows; w++ {
				want := math.NaN()
				wantStale := false
				if rh != nil && w < rh.Windows {
					want = rh.At(r, w)
					wantStale = rh.StaleAt(r, w)
				}
				if math.Float64bits(mh.At(r, w)) != math.Float64bits(want) {
					t.Fatalf("seed=%d shards=%d win=%d class=%v cell(%d,%d): merged %v, restricted reference %v",
						seed, shards, wi, c, r, w, mh.At(r, w), want)
				}
				if mh.StaleAt(r, w) != wantStale {
					t.Fatalf("seed=%d shards=%d win=%d class=%v cell(%d,%d): stale %v, want %v",
						seed, shards, wi, c, r, w, mh.StaleAt(r, w), wantStale)
				}
			}
		}
	}
}

// compareRegions: the merged region set equals the exported batch
// grower over the merged grid — cross-shard stitching included.
func compareRegions(t *testing.T, seed, shards, wi int, merged *detect.Result, dopt detect.Options) {
	t.Helper()
	var want []detect.Region
	for c := detect.Computation; c <= detect.IOClass; c++ {
		if mh := merged.Maps[c]; mh != nil {
			want = append(want, detect.GrowRegions(mh, merged.Samples[c], dopt)...)
		}
	}
	got := regionOrder(merged.Regions)
	want = regionOrder(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed=%d shards=%d win=%d: merged regions differ from batch grower\n got %+v\nwant %+v",
			seed, shards, wi, got, want)
	}
}

// compareFull: the merge of one plane's partial is an identity — the
// whole Result deep-equals the plain pool's full pass.
func compareFull(t *testing.T, seed, wi int, merged, ref *detect.Result) {
	t.Helper()
	if len(merged.Maps) != len(ref.Maps) {
		t.Fatalf("seed=%d win=%d: map count %d vs %d", seed, wi, len(merged.Maps), len(ref.Maps))
	}
	for c, rh := range ref.Maps {
		mh := merged.Maps[c]
		if mh == nil || mh.Ranks != rh.Ranks || mh.Windows != rh.Windows || mh.Origin != rh.Origin || mh.Window != rh.Window {
			t.Fatalf("seed=%d win=%d class=%v: geometry differs", seed, wi, c)
		}
		for i := range rh.Cells {
			if math.Float64bits(mh.Cells[i]) != math.Float64bits(rh.Cells[i]) {
				t.Fatalf("seed=%d win=%d class=%v: cell %d differs", seed, wi, c, i)
			}
		}
		if !reflect.DeepEqual(mh.Stale, rh.Stale) {
			t.Fatalf("seed=%d win=%d class=%v: stale masks differ", seed, wi, c)
		}
		if !reflect.DeepEqual(merged.Samples[c], ref.Samples[c]) {
			t.Fatalf("seed=%d win=%d class=%v: samples differ", seed, wi, c)
		}
	}
	if !reflect.DeepEqual(regionOrder(merged.Regions), regionOrder(ref.Regions)) {
		t.Fatalf("seed=%d win=%d: regions differ", seed, wi)
	}
	if !reflect.DeepEqual(merged.Coverage, ref.Coverage) || merged.OverallCoverage != ref.OverallCoverage {
		t.Fatalf("seed=%d win=%d: coverage differs: %v/%v vs %v/%v",
			seed, wi, merged.Coverage, merged.OverallCoverage, ref.Coverage, ref.OverallCoverage)
	}
	if merged.FixedClusters != ref.FixedClusters || merged.SmallClusters != ref.SmallClusters {
		t.Fatalf("seed=%d win=%d: cluster counts differ", seed, wi)
	}
}
