package detect

import (
	"math"
	"sort"

	"vapro/internal/cluster"
	"vapro/internal/diagnose"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// The sample store: the O(new-data) representation of every STG element
// on the incremental plane — 1-D computation edges, single-class
// comm/IO vertices, UseExtraMetrics elements and mixed-class vertices
// alike. Both clustering planes hand back the same structured Delta,
// and nothing below looks at what kind of element it is.
//
// A sample is a fragment seen through its cluster: Rank, Start, Elapsed
// and the fragment index are the fragment's own, and Perf, Covered and
// the cluster index follow from the owning cluster's current state
// (its fastest member and per-rank counts, both monotone). The store
// therefore keeps no samples at all. Which cluster frags[i] belongs to
// is the clustering's own label lane, which the store reads instead of
// restating: a Result's labels are never rewritten (an advance writes
// past every older view, or copies the chunk), so the store holds the
// Result it advanced to, and a fragment's rank is read from the log
// like its span. The store keys each cluster's state by the cluster's
// label, which it keeps while it lives, so an advance never moves a
// state: it drops the retired labels' states, builds the born ones'
// from their whole memberships and folds the grown ones' appended
// members, and a cluster that starts to emit is walked in one pass over
// the labels. So the store keeps nothing per fragment beyond its
// span-index entry, and a sample is derived as it is written into a
// window's stream. Nothing is ever dead, so there is nothing to
// compact.
//
// Every fragment's span is indexed once, under the fragment's own
// heat-map class: class is a property of a fragment's place in the
// index, not of the element, so a vertex carrying several kinds needs
// no representation of its own. "Is a sample" is a filter on a class's
// index, the class's coverage denominator is its unfiltered sum. Each
// index is segmented (the logarithmic method): an advance merges the
// appended spans' runs into one ordered segment and adds it; a segment
// at least half the size of its predecessor is merged into it, so there
// are O(log n) segments and appends amortize to O(log n). Every segment
// is ordered by (start, fragment index), so a window's selection comes
// back as one ordered run per segment and the stream merge never sorts.
// A segment entry is the fragment's 4-byte position and nothing else:
// the start and elapsed it is ordered, filtered and summed by are read
// from the element's log (its start and elapsed lanes,
// trace.LogView.Lane), which holds them once already. They are the
// same int64s a copy would hold, so every comparison and sum comes out
// bit for bit as over a column index (the oracle's).

// sampleStore is the store representation of one element.
type sampleStore struct {
	// cl is the clustering the store advanced to: frags[i] belongs to
	// the cluster labelled cl.LabelOf(i), and is a sample iff that
	// label's state is emitted. Shared with the cache, never written.
	cl cluster.Result
	// spans[c] indexes the spans of the class-c fragments by fragment
	// position.
	spans [numClasses]segIndex
	// cstate[l] is the normalization state of the cluster labelled l
	// (zero for a label no cluster holds).
	cstate []clustState

	// Scratch, reused: a window's candidate band per segment.
	bands []band
}

// band is one segment's candidate range for a window.
type band struct{ lo, hi int }

// segIndex is a segmented span index over fragment positions.
type segIndex struct {
	segs []segment
}

// segment is one ordered run of a segIndex: fragment positions ordered
// by (start, position), and the longest elapsed among them.
type segment struct {
	pos        []int32
	maxElapsed int64
}

// startAt reads fragment p's start, the key every segment is ordered by,
// through its chunk's start lane.
func startAt(frags trace.LogView, p int32) int64 {
	l := frags.Lane(trace.ColStart, int(uint32(p)/trace.LogChunkRows))
	return int64(l.At(int(uint32(p) % trace.LogChunkRows)))
}

// add appends one ordered segment of positions newer than everything
// indexed and re-establishes the geometric invariant.
func (ix *segIndex) add(frags trace.LogView, seg segment) {
	if len(seg.pos) == 0 {
		return
	}
	ix.segs = append(ix.segs, seg)
	for n := len(ix.segs); n >= 2 && len(ix.segs[n-1].pos)*2 >= len(ix.segs[n-2].pos); n-- {
		ix.segs[n-2] = mergeSegments(frags, ix.segs[n-2], ix.segs[n-1])
		ix.segs[n-1] = segment{} // don't pin the merged-away positions
		ix.segs = ix.segs[:n-1]
	}
}

// mergeSegments merges two segments. a predates b — every position in b
// is larger than every position in a — so on equal starts a's entries
// go first. Each of b's starts is read once; a is galloped through, not
// walked: b is the stream's newest tail, so almost all of a precedes all
// of b and is copied in bulk, read only at the probes that find its end.
func mergeSegments(frags trace.LogView, a, b segment) segment {
	out := make([]int32, 0, len(a.pos)+len(b.pos))
	i := 0
	for _, p := range b.pos {
		s := startAt(frags, p)
		// The first k ≥ i whose start exceeds s: probe i, i+1, i+3, i+7,
		// … until one does, then bisect the last step.
		lo, hi := i, i
		for step := 1; hi < len(a.pos) && startAt(frags, a.pos[hi]) <= s; step <<= 1 {
			lo, hi = hi+1, hi+step
		}
		hi = min(hi, len(a.pos))
		k := lo + sort.Search(hi-lo, func(j int) bool { return startAt(frags, a.pos[lo+j]) > s })
		out = append(append(out, a.pos[i:k]...), p)
		i = k
	}
	return segment{pos: append(out, a.pos[i:]...), maxElapsed: max(a.maxElapsed, b.maxElapsed)}
}

// candidates returns the [lo, hi) range of s's entries whose spans can
// overlap [start, end); each candidate still needs the exact
// start+elapsed > start check.
func (s *segment) candidates(frags trace.LogView, start, end int64) (lo, hi int) {
	return overlapBand(len(s.pos), s.maxElapsed, start, end, func(i int) int64 { return startAt(frags, s.pos[i]) })
}

// overlapBand is a span index's candidate range over n entries ordered
// by startOf, the longest spanning maxElapsed.
func overlapBand(n int, maxElapsed, start, end int64, startOf func(i int) int64) (lo, hi int) {
	// A span [s, s+e) overlaps iff s < end && s+e > start, which needs
	// s > start-maxElapsed. A subtraction that wraps (start near
	// MinInt64) excludes nothing.
	if thresh := start - maxElapsed; thresh <= start {
		lo = sort.Search(n, func(i int) bool { return startOf(i) > thresh })
	}
	hi = sort.Search(n, func(i int) bool { return startOf(i) >= end })
	return lo, hi
}

// classSpans orders rows [from, frags.Len()) into one segment per
// heat-map class, each row under its own kind's class. The position
// lists are pre-sized: a suffix of one kind throughout — every append
// to a computation edge, nearly every one to a vertex — is known whole
// from its first row, a mixed one is counted first.
func classSpans(frags trace.LogView, from int) (out [numClasses]segment) {
	n := frags.Len()
	if from >= n {
		return out
	}
	var size [numClasses]int
	only := -1 // the class of a single-kind suffix
	if k := frags.Kind(from); frags.AllKind(from, k) {
		only = int(ClassOf(k))
		size[only] = n - from
	} else {
		for i := from; i < n; i++ {
			size[ClassOf(frags.Kind(i))]++
		}
	}
	for c, sz := range size {
		if sz > 0 {
			out[c].pos = make([]int32, 0, sz)
		}
	}
	// One buffer holds the rows' elapsed times, then their starts (the
	// sort key, starts[i-from] for row i), each column read a chunk's
	// lane at a time.
	starts := make([]int64, n-from)
	trace.ReadColumn(frags, trace.ColElapsed, from, starts)
	for i := from; i < n; i++ {
		c := only
		if c < 0 {
			c = int(ClassOf(frags.Kind(i)))
		}
		out[c].pos = append(out[c].pos, int32(i))
		out[c].maxElapsed = max(out[c].maxElapsed, starts[i-from])
	}
	trace.ReadColumn(frags, trace.ColStart, from, starts)
	for c := range out {
		out[c].pos = orderPositions(out[c].pos, starts, from)
	}
	return out
}

// orderPositions orders ascending positions by (start, position) —
// position p's start is starts[p-base] — by merging the runs that are
// already in start order. The merge is stable and the positions start
// ascending, so equal starts keep position order. The fragments of one
// flush arrive start-ordered per rank, so an appended suffix is a
// handful of long runs and this costs n·log(runs) compares; on
// arbitrary input it degrades to a plain merge sort. The result may
// alias pos.
func orderPositions(pos []int32, starts []int64, base int) []int32 {
	before := func(a, b int32) bool { return starts[int(a)-base] < starts[int(b)-base] }
	bounds := []int{0}
	for i := 1; i < len(pos); i++ {
		if before(pos[i], pos[i-1]) {
			bounds = append(bounds, i)
		}
	}
	runs := len(bounds)
	if runs == 1 {
		return pos
	}
	bounds = append(bounds, len(pos))
	src, dst := pos, make([]int32, len(pos))
	for runs > 1 {
		w := 0
		for r := 0; r < runs; r += 2 {
			lo, mid, hi := bounds[r], bounds[min(r+1, runs)], bounds[min(r+2, runs)]
			i, j, o := lo, mid, lo
			for i < mid && j < hi {
				if before(src[j], src[i]) {
					dst[o] = src[j]
					j++
				} else {
					dst[o] = src[i]
					i++
				}
				o++
			}
			o += copy(dst[o:], src[i:mid])
			copy(dst[o:], src[j:hi])
			w++
			bounds[w] = hi
		}
		runs = w
		src, dst = dst, src
	}
	return src
}

// addSpans indexes the spans of rows [from, frags.Len()).
func (st *sampleStore) addSpans(frags trace.LogView, from int) {
	segs := classSpans(frags, from)
	for c := range segs {
		st.spans[c].add(frags, segs[c])
	}
}

// seal finishes a state its cluster's members were folded into: a
// cluster with a valid best emits its members as samples; a small one,
// or a fixed one with no positive elapsed, emits nothing (the latter
// keeps its moments).
func (st *clustState) seal() {
	if st.best == math.MaxInt64 {
		*st = clustState{mom: st.mom}
		return
	}
	st.emitted = true
}

// fresh returns a cluster's state before any member is folded: with
// moments over factors, if any.
func fresh(factors []diagnose.Factor) clustState {
	st := clustState{best: math.MaxInt64}
	if factors != nil {
		st.mom = diagnose.NewClusterMoments(factors)
	}
	return st
}

// walkAssign computes the states of the labels marked in need (all of
// Fixed clusters) from their whole memberships, in one pass over the
// labels, a chunk at a time, and returns how many moment sets it built.
func walkAssign(frags trace.LogView, cl cluster.Result, cstate []clustState, need []bool, factors []diagnose.Factor) (built uint64) {
	for l := range need {
		if need[l] {
			cstate[l] = fresh(factors)
			if factors != nil {
				built++
			}
		}
	}
	var f trace.Fragment
	for c := 0; c*trace.LogChunkRows < cl.Len(); c++ {
		lc, base := cl.LabelChunk(c), c*trace.LogChunkRows
		for r := range min(trace.LogChunkRows, cl.Len()-base) {
			if l := lc.At(r); need[l] {
				cstate[l].observe(frags, int32(base+r), &f)
			}
		}
	}
	for l := range need {
		if need[l] {
			cstate[l].seal()
		}
	}
	return built
}

// buildStore builds the store representation from scratch.
func (p *prepElem) buildStore(frags trace.LogView, cl cluster.Result, met *Metrics) {
	st := &sampleStore{cl: cl, cstate: make([]clustState, cl.Labels())}
	p.store = st
	need := make([]bool, cl.Labels())
	for l := range need {
		need[l] = cl.Index(l) >= 0 && cl.Clusters[cl.Index(l)].Fixed
	}
	if built := walkAssign(frags, cl, st.cstate, need, p.factors); met != nil {
		met.OLSRefactors.Add(built)
	}
	st.addSpans(frags, 0)
}

// advanceStore patches the store with an append-only clustering delta,
// in place, in O(batch), and reports whether it could. False means the
// caller must rebuild: the delta is unstructured (Full), it advances
// from a different generation than the prep holds, or the options
// moved. A retired label's state is dropped, a born cluster folds its
// Added list, which holds its whole membership, and a grown emitted
// cluster folds in just its Added members. A grown cluster that starts
// to emit had its old members never folded: those clusters are walked
// together in one pass over the labels. Every other state stays where
// it is, whatever its cluster's index did; the state derived per sample
// absorbs best and coverage movement without touching anything
// resident. Moment work is counted into met, if set.
func (p *prepElem) advanceStore(frags trace.LogView, cl cluster.Result, d cluster.Delta, opt Options, gen stg.Gen, met *Metrics) bool {
	if d.Full || p.copt != opt.Cluster || d.From != p.gen {
		return false
	}
	oldN := p.nfrags
	nn := frags.Len()
	if nn <= oldN || cl.Len() != nn {
		return false
	}
	st := p.store
	for _, l := range d.Retired {
		st.cstate[l] = clustState{}
	}
	if n := cl.Labels(); n > len(st.cstate) {
		st.cstate = append(st.cstate, make([]clustState, n-len(st.cstate))...)
	}
	var need []bool // the labels walkAssign computes
	var f trace.Fragment
	var adds, rebuilt uint64
	for _, r := range d.Born {
		cst := &st.cstate[r.Label]
		if !cl.Clusters[cl.Index(r.Label)].Fixed {
			*cst = clustState{} // small: no member is a sample
			continue
		}
		*cst = fresh(p.factors)
		for _, m := range r.Added {
			cst.observe(frags, m, &f)
		}
		cst.seal()
		rebuilt++
	}
	for _, r := range d.Grown {
		cst := &st.cstate[r.Label]
		switch {
		case !cl.Clusters[cl.Index(r.Label)].Fixed:
			// Still small: the zero state says so.
		case cst.emitted:
			// Only the added members are new.
			for _, m := range r.Added {
				cst.observe(frags, m, &f)
			}
			adds += uint64(len(r.Added))
		default:
			// Grown into emission, or into Fixed: its old members were
			// never folded.
			if need == nil {
				need = make([]bool, len(st.cstate))
			}
			need[r.Label] = true
		}
	}
	if need != nil {
		rebuilt += walkAssign(frags, cl, st.cstate, need, p.factors)
	}
	if met != nil && p.factors != nil {
		met.OLSRank1Updates.Add(adds)
		met.OLSRefactors.Add(rebuilt)
	}

	st.cl = cl
	p.countClusters(cl)
	st.addSpans(frags, oldN)
	p.gen = gen
	p.nfrags = nn
	p.frags = frags
	return true
}

// windowStore fills the element's window contribution from the store:
// one candidate band per segment, "is a sample" through the fragment's
// cluster state, the covered sum through the rank read from the log and
// the cluster's rank array — no per-sample hashing — and one ordered
// run per segment. A window that
// selects anything costs two allocations however many classes and
// segments it touches: the selection buffer, sized once from the bands,
// and the run list; a class with no fragments contributes no band.
func (p *prepElem) windowStore(start, end int64, out *elemOut) {
	st, frags := p.store, p.frags
	st.bands = st.bands[:0]
	cand, nruns := 0, 0
	for c := range st.spans {
		for si := range st.spans[c].segs {
			lo, hi := st.spans[c].segs[si].candidates(frags, start, end)
			st.bands = append(st.bands, band{lo, hi})
			if hi > lo {
				cand += hi - lo
				nruns++
			}
		}
	}
	if cand == 0 {
		return
	}
	minFrag := int32(p.minFrag)
	lr := labelReader{c: -1}
	buf := make([]int32, 0, cand)
	runs := make([]elemRun, 0, nruns)
	bands := st.bands
	for c := range st.spans {
		segs := st.spans[c].segs
		first := len(runs)
		var total, fixed int64
		for si := range segs {
			from := len(buf)
			for _, pos := range segs[si].pos[bands[si].lo:bands[si].hi] {
				rank, s, el := frags.Span(int(pos))
				if s+el <= start {
					continue
				}
				total += el
				cst := &st.cstate[lr.at(&st.cl, pos)]
				if !cst.emitted {
					continue
				}
				if cst.ranks.count(rank) >= minFrag {
					fixed += el
				}
				buf = append(buf, pos)
			}
			if len(buf) > from {
				runs = append(runs, elemRun{sel: buf[from:len(buf):len(buf)], store: p, labels: labelReader{c: -1}})
			}
		}
		bands = bands[len(segs):]
		if len(runs) > first {
			out.runs[c] = runs[first:len(runs):len(runs)]
		}
		out.total[c] = total
		out.fixed[c] = fixed
	}
}

// labelReader reads a Result's labels a chunk at a time: it holds the
// chunk of the last position read until a position in another is read.
type labelReader struct {
	c  int // the held chunk; -1: none
	lc cluster.LabelChunk
}

func (lr *labelReader) at(cl *cluster.Result, pos int32) int {
	if c := int(pos) / trace.LogChunkRows; c != lr.c {
		lr.c, lr.lc = c, cl.LabelChunk(c)
	}
	return lr.lc.At(int(pos) % trace.LogChunkRows)
}

// sampleAt derives the sample of fragment pos from its span in the log
// and the owning cluster's current state: Perf against its current
// fastest member, Covered from its current per-rank counts. lr reads
// the label; a run keeps its own.
func (p *prepElem) sampleAt(pos int32, dst *Sample, lr *labelReader) {
	st := p.store
	l := lr.at(&st.cl, pos)
	cst := &st.cstate[l]
	rank, start, el := p.frags.Span(int(pos))
	perf := 1.0
	if el > 0 {
		perf = float64(cst.best) / float64(el)
	}
	*dst = Sample{
		Rank:       rank,
		Start:      start,
		Elapsed:    el,
		Perf:       perf,
		Covered:    cst.ranks.count(rank) >= int32(p.minFrag),
		ClusterRef: p.ref,
		FragIndex:  int(pos),
	}
	dst.ClusterRef.Cluster = st.cl.Index(l)
}
