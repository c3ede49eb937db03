package detect

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// referenceRun is the pre-prep detection pass: per window, every
// element is re-normalized from scratch through normalizeElement. The
// prep-sliced run() must reproduce its output bit for bit.
func referenceRun(cache *cluster.Cache, g *stg.Graph, ranks int, opt Options, start, end, origin int64) *Result {
	if opt.Window <= 0 {
		opt.Window = 500 * sim.Millisecond
	}
	if opt.Threshold <= 0 {
		opt.Threshold = 0.85
	}
	res := &Result{
		Maps:     make(map[Class]*HeatMap),
		Samples:  make(map[Class][]Sample),
		Coverage: make(map[Class]float64),
	}
	edges := g.Edges()
	verts := g.Vertices()
	outs := make([]elemDirect, len(edges)+len(verts))
	forEach(len(outs), opt.Parallelism, func(i int) {
		if i < len(edges) {
			e := edges[i]
			cl := cache.Run(cluster.EdgeKey(e.Key), e.Gen, e.Log(), opt.Cluster)
			outs[i] = normalizeElement(e.Log(), cl, ClusterRef{IsEdge: true, Edge: e.Key}, opt, start, end)
		} else {
			v := verts[i-len(edges)]
			cl := cache.Run(cluster.VertexKey(v.Key), v.Gen, v.Log(), opt.Cluster)
			outs[i] = normalizeElement(v.Log(), cl, ClusterRef{Vertex: v.Key}, opt, start, end)
		}
	})
	var total, fixed [numClasses]int64
	for i := range outs {
		o := &outs[i]
		res.FixedClusters += o.fixedClusters
		res.SmallClusters += o.smallClusters
		for c := 0; c < numClasses; c++ {
			if len(o.samples[c]) > 0 {
				res.Samples[Class(c)] = append(res.Samples[Class(c)], o.samples[c]...)
			}
			total[c] += o.total[c]
			fixed[c] += o.fixed[c]
		}
	}
	var allTotal, allFixed int64
	for c := 0; c < numClasses; c++ {
		allTotal += total[c]
		allFixed += fixed[c]
		if total[c] > 0 {
			res.Coverage[Class(c)] = float64(fixed[c]) / float64(total[c])
		}
	}
	if allTotal > 0 {
		res.OverallCoverage = float64(allFixed) / float64(allTotal)
	}
	var maps [numClasses]*HeatMap
	var regions [numClasses][]Region
	forEach(numClasses, opt.Parallelism, func(c int) {
		samples := res.Samples[Class(c)]
		if len(samples) == 0 {
			return
		}
		sortSamples(samples)
		h := buildHeatMap(Class(c), samples, ranks, opt.Window, origin)
		if h == nil {
			return
		}
		maps[c] = h
		regions[c] = growRegions(h, samples, opt)
	})
	for c := 0; c < numClasses; c++ {
		if maps[c] != nil {
			res.Maps[Class(c)] = maps[c]
			res.Regions = append(res.Regions, regions[c]...)
		}
	}
	sort.Slice(res.Regions, func(i, j int) bool { return res.Regions[i].LossNS > res.Regions[j].LossNS })
	return res
}

func identicalHeatMap(t *testing.T, class Class, a, b *HeatMap) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("class %v: one heat map nil", class)
	}
	if a == nil {
		return
	}
	if a.Ranks != b.Ranks || a.Windows != b.Windows || a.Window != b.Window || a.Origin != b.Origin {
		t.Fatalf("class %v: heat map shape %+v vs %+v", class, a, b)
	}
	for i := range a.Cells {
		if math.Float64bits(a.Cells[i]) != math.Float64bits(b.Cells[i]) {
			t.Fatalf("class %v cell %d: %v vs %v", class, i, a.Cells[i], b.Cells[i])
		}
	}
}

func identicalResult(t *testing.T, a, b *Result) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatal("one result nil")
	}
	if a == nil {
		return
	}
	if a.FixedClusters != b.FixedClusters || a.SmallClusters != b.SmallClusters {
		t.Fatalf("cluster counts (%d,%d) vs (%d,%d)", a.FixedClusters, a.SmallClusters, b.FixedClusters, b.SmallClusters)
	}
	if math.Float64bits(a.OverallCoverage) != math.Float64bits(b.OverallCoverage) {
		t.Fatalf("overall coverage %v vs %v", a.OverallCoverage, b.OverallCoverage)
	}
	if !reflect.DeepEqual(a.Coverage, b.Coverage) {
		t.Fatalf("coverage %v vs %v", a.Coverage, b.Coverage)
	}
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatalf("samples differ: %d/%d/%d vs %d/%d/%d",
			len(a.Samples[Computation]), len(a.Samples[Communication]), len(a.Samples[IOClass]),
			len(b.Samples[Computation]), len(b.Samples[Communication]), len(b.Samples[IOClass]))
	}
	if !reflect.DeepEqual(a.Regions, b.Regions) {
		t.Fatalf("regions differ: %d vs %d", len(a.Regions), len(b.Regions))
	}
	if len(a.Maps) != len(b.Maps) {
		t.Fatalf("map count %d vs %d", len(a.Maps), len(b.Maps))
	}
	for c := 0; c < numClasses; c++ {
		identicalHeatMap(t, Class(c), a.Maps[Class(c)], b.Maps[Class(c)])
	}
}

// equivGraph exercises the slicer's corner cases: Start ties across
// ranks, zero-elapsed fragments, fragments straddling window edges,
// vertices carrying mixed classes, an element whose span envelope has a
// gap, and an element entirely outside most windows.
func equivGraph() *stg.Graph {
	g := stg.New()
	// Dense comp edge: ties and near-identical workloads.
	for rank := 0; rank < 4; rank++ {
		for i := 0; i < 40; i++ {
			el := int64(1_000_000 + (i%3)*1000)
			if rank == 2 && i >= 20 && i < 30 {
				el *= 3 // variance region
			}
			g.AddBatch([]trace.Fragment{{
				Rank: rank, Kind: trace.Comp, From: 1, State: 2,
				Start:   int64(i) * 2_000_000, // exact ties across ranks
				Elapsed: el,
				Counters: trace.CountersView{
					TotIns: uint64(5_000_000 + i%7),
				},
			}})
		}
	}
	// Zero-elapsed and straddling fragments on a second edge.
	for rank := 0; rank < 4; rank++ {
		for i := 0; i < 12; i++ {
			g.AddBatch([]trace.Fragment{{
				Rank: rank, Kind: trace.Comp, From: 2, State: 3,
				Start:   int64(i)*7_000_000 + 3_500_000, // straddles 10ms window edges
				Elapsed: int64(i%2) * 9_000_000,         // half are zero-elapsed
				Counters: trace.CountersView{
					TotIns: uint64(3_000_000 + i%5),
				},
			}})
		}
	}
	// Mixed-class vertex: comm and IO fragments on one state.
	for rank := 0; rank < 4; rank++ {
		for i := 0; i < 10; i++ {
			k := trace.Comm
			if i%2 == 0 {
				k = trace.IO
			}
			g.AddBatch([]trace.Fragment{{
				Rank: rank, Kind: k, State: 3,
				Start:   int64(i)*8_000_000 + int64(rank),
				Elapsed: 400_000 + int64(i%4)*1000,
				Args:    trace.Args{Op: trace.Op("Allreduce"), Bytes: 1 << 14},
			}})
		}
	}
	// Bounds-gap element: activity only at the run's two ends.
	for rank := 0; rank < 4; rank++ {
		for i := 0; i < 6; i++ {
			g.AddBatch([]trace.Fragment{{
				Rank: rank, Kind: trace.Sync, State: 9,
				Start:   int64(i%2) * 76_000_000, // 0 or 76ms, nothing between
				Elapsed: 300_000,
			}})
		}
	}
	// Element outside most windows.
	for rank := 0; rank < 4; rank++ {
		for i := 0; i < 8; i++ {
			g.AddBatch([]trace.Fragment{{
				Rank: rank, Kind: trace.Comp, From: 9, State: 10,
				Start:   74_000_000 + int64(i)*200_000,
				Elapsed: 150_000,
			}})
		}
	}
	return g
}

// TestPrepWindowEquivalence: the prep-sliced pass must be bit-identical
// to the direct per-window normalization, for the whole run and for
// sliding windows (including empty and partially covered ones), at
// sequential and parallel settings.
func TestPrepWindowEquivalence(t *testing.T) {
	g := equivGraph()
	opt := DefaultOptions()
	opt.Window = 10 * sim.Millisecond
	opt.Cluster.MinFragments = 4

	for _, par := range []int{1, 4} {
		opt.Parallelism = par
		an := NewAnalyzer()
		refCache := cluster.NewCache()

		got := an.Run(g, 4, opt)
		want := referenceRun(refCache, g, 4, opt, math.MinInt64, math.MaxInt64, 0)
		identicalResult(t, got, want)

		// Sliding windows, 10ms stride over a 90ms span plus windows
		// fully before/after the data.
		for start := int64(-20_000_000); start < 100_000_000; start += 10_000_000 {
			end := start + 20_000_000
			got := an.RunWindow(g, 4, opt, start, end)
			want := referenceRun(refCache, g, 4, opt, start, end, start)
			identicalResult(t, got, want)
		}
	}
}

// TestPrepEquivalenceAfterGrowth re-checks equivalence after elements
// grow (the online monitor's situation: preps must invalidate on
// version bumps, not serve stale samples).
func TestPrepEquivalenceAfterGrowth(t *testing.T) {
	g := equivGraph()
	opt := DefaultOptions()
	opt.Window = 10 * sim.Millisecond
	opt.Cluster.MinFragments = 4
	an := NewAnalyzer()

	check := func() {
		t.Helper()
		refCache := cluster.NewCache()
		for start := int64(0); start < 90_000_000; start += 10_000_000 {
			got := an.RunWindow(g, 4, opt, start, start+20_000_000)
			want := referenceRun(refCache, g, 4, opt, start, start+20_000_000, start)
			identicalResult(t, got, want)
		}
	}
	check()
	// Grow one edge and one vertex, then re-check against a fresh
	// reference.
	for rank := 0; rank < 4; rank++ {
		g.AddBatch([]trace.Fragment{{
			Rank: rank, Kind: trace.Comp, From: 1, State: 2,
			Start: 80_000_000 + int64(rank), Elapsed: 1_000_000,
			Counters: trace.CountersView{TotIns: 5_000_001},
		}})
		g.AddBatch([]trace.Fragment{{
			Rank: rank, Kind: trace.Comm, State: 3,
			Start: 82_000_000 + int64(rank), Elapsed: 500_000,
			Args: trace.Args{Op: trace.Op("Allreduce"), Bytes: 1 << 14},
		}})
	}
	check()
}

// elemDirect is the materialized form of an element's window
// contribution, produced by normalizeElement. The production path uses
// elemOut's referenced samples instead; this form exists for the
// equivalence tests that pin the two paths bit-identical.
type elemDirect struct {
	samples       [numClasses][]Sample
	total, fixed  [numClasses]int64
	fixedClusters int
	smallClusters int
}

// normalizeElement turns one element's clustering into normalized
// samples and coverage partials, keeping only fragments overlapping
// [start, end). Each fragment is classed by its own kind — a vertex
// carrying mixed fragment kinds contributes to several classes rather
// than being classed wholesale by its first fragment.
//
// The hot path no longer calls this per window — prepElem.window slices
// the same outputs from a memoized full-population pass — but this
// direct form remains the semantic reference: the equivalence tests pin
// the sliced path bit-identical to it.
func normalizeElement(frags trace.LogView, cl cluster.Result, ref ClusterRef, opt Options, start, end int64) (out elemDirect) {
	minFrag := opt.Cluster.MinFragments
	if minFrag <= 0 {
		minFrag = 5
	}
	groups := cl.Groups()
	for ci := range cl.Clusters {
		if cl.Clusters[ci].Fixed {
			out.fixedClusters++
		} else {
			out.smallClusters++
			continue
		}
		// Fastest member defines performance 1.0.
		best := int64(math.MaxInt64)
		perRank := make(map[int]int)
		for _, m := range groups[ci] {
			rank, _, e := frags.Span(int(m))
			perRank[rank]++
			if e > 0 && e < best {
				best = e
			}
		}
		if best == math.MaxInt64 {
			continue
		}
		for _, m := range groups[ci] {
			rank, fstart, elapsed := frags.Span(int(m))
			if fstart >= end || fstart+elapsed <= start {
				continue
			}
			class := ClassOf(frags.Kind(int(m)))
			// Detection pools fragments across processes (the
			// inter-process comparison needs that), but coverage
			// follows the paper's repetition notion: the snippet
			// must recur within a process to count as repeated
			// fixed workload there.
			covered := perRank[rank] >= minFrag
			if covered {
				out.fixed[class] += elapsed
			}
			perf := 1.0
			if elapsed > 0 {
				perf = float64(best) / float64(elapsed)
			}
			ref := ref
			ref.Cluster = ci
			out.samples[class] = append(out.samples[class], Sample{
				Rank:       rank,
				Start:      fstart,
				Elapsed:    elapsed,
				Perf:       perf,
				Covered:    covered,
				ClusterRef: ref,
				FragIndex:  int(m),
			})
		}
	}
	for i := 0; i < frags.Len(); i++ {
		_, fstart, elapsed := frags.Span(i)
		if fstart >= end || fstart+elapsed <= start {
			continue
		}
		out.total[ClassOf(frags.Kind(i))] += elapsed
	}
	return out
}
