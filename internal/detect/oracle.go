package detect

import (
	"cmp"
	"math"
	"slices"

	"vapro/internal/cluster"
	"vapro/internal/trace"
)

// The DisableIncremental oracle: the from-scratch analysis every
// incremental structure is pinned bit-identical to (the equivalence
// fuzzes, bench/'s gate, BenchmarkMonitorTick*/plane=batch). Its chain
// is cache.RunBatch → buildFlat → flatPrep.window → runMerger.concat →
// sortSamples → batch growRegions: samples materialized per element
// generation, a window's stream comparison-sorted, regions grown from
// nothing. It is rebuilt whenever its element moves and never advanced,
// and it shares no state with the sample store — only the cluster-state
// arithmetic both are made of. Its span index is its own: a column
// index, comparison-sorted, holding every span it answers for, which
// the store's position-only segments are pinned to.

// flatPrep is the oracle's body of a prepElem.
type flatPrep struct {
	// samples holds the full-population sample lists per class, in
	// emission order (cluster-major).
	samples [numClasses][]Sample
	// sampleIdx slices samples by time window: its entries name
	// positions in samples, ordered by (start, fragment index).
	sampleIdx [numClasses]spanIndex
	// fragIdx indexes every fragment's span per class for the coverage
	// denominator (elemOut.total sums all fragments, not just cluster
	// members).
	fragIdx [numClasses]spanIndex
}

// spanEnt is one span on its way into a spanIndex.
type spanEnt struct {
	start, elapsed int64
	pos            int32 // what the entry names: a sample position or a fragment index
	frag           int32 // the fragment index, the tie key under equal starts
	covered        bool
}

// spanIndex is the oracle's column index: it answers "which spans
// overlap [start, end)" in O(log n + candidates) from its own copy of
// every span, starts sorted.
type spanIndex struct {
	pos        []int32 // pos[i]: the sample position or fragment index entry i names
	starts     []int64 // sorted
	elapsed    []int64
	covered    []bool // covered flag of entry i (sample entries only)
	maxElapsed int64
}

// newSpanIndex orders ents by (start, fragment index) and lays them out
// in columns.
func newSpanIndex(ents []spanEnt) spanIndex {
	slices.SortFunc(ents, func(a, b spanEnt) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.frag, b.frag))
	})
	n := len(ents)
	ix := spanIndex{pos: make([]int32, n), starts: make([]int64, n), elapsed: make([]int64, n), covered: make([]bool, n)}
	for i, e := range ents {
		ix.pos[i], ix.starts[i], ix.elapsed[i], ix.covered[i] = e.pos, e.start, e.elapsed, e.covered
		ix.maxElapsed = max(ix.maxElapsed, e.elapsed)
	}
	return ix
}

// candidates is segment.candidates over the columns.
func (ix *spanIndex) candidates(start, end int64) (lo, hi int) {
	return overlapBand(len(ix.starts), ix.maxElapsed, start, end, func(i int) int64 { return ix.starts[i] })
}

// buildFlat runs the full-population normalization once (the same walk
// normalizeElement does with an unbounded window) and indexes the
// outputs for window slicing.
func buildFlat(frags trace.LogView, cl cluster.Result, ref ClusterRef, minFrag int) *flatPrep {
	p := &flatPrep{}
	var all, ents [numClasses][]spanEnt
	for i := 0; i < frags.Len(); i++ {
		_, start, elapsed := frags.Span(i)
		c := ClassOf(frags.Kind(i))
		all[c] = append(all[c], spanEnt{start: start, elapsed: elapsed, pos: int32(i), frag: int32(i)})
	}
	groups := cl.Groups()
	for ci := range cl.Clusters {
		if !cl.Clusters[ci].Fixed {
			continue
		}
		st := clustState{best: math.MaxInt64}
		for _, m := range groups[ci] {
			st.observe(frags, m, nil) // no moments: no scratch read
		}
		if st.best == math.MaxInt64 {
			continue
		}
		for _, m := range groups[ci] {
			s := st.sample(frags, m, ref, ci, minFrag)
			class := ClassOf(frags.Kind(int(m)))
			ents[class] = append(ents[class], spanEnt{
				start: s.Start, elapsed: s.Elapsed,
				pos: int32(len(p.samples[class])), frag: m, covered: s.Covered,
			})
			p.samples[class] = append(p.samples[class], s)
		}
	}
	for c := range ents {
		p.fragIdx[c] = newSpanIndex(all[c])
		p.sampleIdx[c] = newSpanIndex(ents[c])
	}
	return p
}

// sample normalizes member m of cluster ci against the cluster's
// state.
func (st *clustState) sample(frags trace.LogView, m int32, ref ClusterRef, ci, minFrag int) Sample {
	rank, start, elapsed := frags.Span(int(m))
	perf := 1.0
	if elapsed > 0 {
		perf = float64(st.best) / float64(elapsed)
	}
	ref.Cluster = ci
	return Sample{
		Rank:       rank,
		Start:      start,
		Elapsed:    elapsed,
		Perf:       perf,
		Covered:    int(st.ranks.count(rank)) >= minFrag,
		ClusterRef: ref,
		FragIndex:  int(m),
	}
}

// window is prepElem.window for the flat body: one run per class.
func (p *flatPrep) window(start, end int64, out *elemOut) {
	for c := 0; c < numClasses; c++ {
		ix := &p.sampleIdx[c]
		sel, fixed := ix.selectOverlapping(start, end)
		if len(sel) > 0 {
			out.runs[c] = []elemRun{{sel: sel, flat: p.samples[c]}}
		}
		out.fixed[c] = fixed
		out.total[c] = p.fragIdx[c].sumOverlapping(start, end)
	}
}

// sumOverlapping totals elapsed over spans overlapping [start, end).
func (ix *spanIndex) sumOverlapping(start, end int64) int64 {
	lo, hi := ix.candidates(start, end)
	var sum int64
	for i := lo; i < hi; i++ {
		if ix.starts[i]+ix.elapsed[i] > start {
			sum += ix.elapsed[i]
		}
	}
	return sum
}

// selectOverlapping returns what the entries whose spans overlap
// [start, end) name, in index order — one run already ordered under
// sampleLess — plus the covered elapsed sum over the selection.
func (ix *spanIndex) selectOverlapping(start, end int64) (sel []int32, fixed int64) {
	lo, hi := ix.candidates(start, end)
	if lo >= hi {
		return nil, 0
	}
	sel = make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if ix.starts[i]+ix.elapsed[i] > start {
			sel = append(sel, ix.pos[i])
			if ix.covered[i] {
				fixed += ix.elapsed[i]
			}
		}
	}
	return sel, fixed
}

// concat appends m.runs to dst one after the other, unmerged, and
// clears the run list: what the oracle sorts.
func (m *runMerger) concat(dst []Sample) []Sample {
	var s Sample
	for _, r := range m.runs {
		for r.next(&s) {
			dst = append(dst, s)
		}
	}
	m.reset()
	return dst
}

// sortSamples orders one class's samples under sampleLess by a
// comparison sort — the oracle's way, independent of the run merge it
// pins.
func sortSamples(samples []Sample) { slices.SortFunc(samples, compareSamples) }

// compareSamples is sampleLess as a three-way comparison.
func compareSamples(a, b Sample) int {
	if sampleLess(&a, &b) {
		return -1
	}
	if sampleLess(&b, &a) {
		return 1
	}
	return 0
}
