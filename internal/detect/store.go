package detect

import (
	"math"
	"slices"
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
// is the clustering's own Assign, which the store reads instead of
// restating: a Result's Assign is never rewritten (an advance extends a
// grow-only backing past every older view, or clones), so the store
// holds the Assign of the Result it advanced to, and a fragment's rank
// is read from the log like its span. So the store keeps nothing per
// fragment beyond its span-index entry, and a sample is derived as it
// is written into a window's stream. An append folds the appended
// positions into their clusters' states and touches nothing else; a
// rebuilt cluster folds the whole membership its Delta lists, and a
// cluster that starts to emit is walked in one pass over Assign.
// Nothing is ever dead, so there is nothing to compact.
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
	// assign is the Assign of the clustering the store advanced to:
	// frags[i] belongs to cluster assign[i], and is a sample iff that
	// cluster's state is emitted. Shared with the Result, never written.
	assign []int32
	// spans[c] indexes the spans of the class-c fragments by fragment
	// position.
	spans [numClasses]segIndex
	// cstate[ci] is cluster ci's normalization state.
	cstate []clustState

	// Scratch, reused: the old dirty clusters an advance's delta has
	// claimed, and a window's candidate band per segment.
	claimed []bool
	bands   []band
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
func (st *clustState) seal(size int) {
	if st.best == math.MaxInt64 {
		*st = clustState{mom: st.mom}
		return
	}
	st.emitted = true
	st.nStored = int32(size)
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

// walkAssign computes the states of the clusters marked in need (all
// Fixed) from their whole memberships, in one pass over Assign, and
// returns how many moment sets it built.
func walkAssign(frags trace.LogView, cl cluster.Result, cstate []clustState, need []bool, factors []diagnose.Factor) (built uint64) {
	for ci := range cstate {
		if need[ci] {
			cstate[ci] = fresh(factors)
			if factors != nil {
				built++
			}
		}
	}
	var f trace.Fragment
	for i, ci := range cl.Assign {
		if need[ci] {
			cstate[ci].observe(frags, int32(i), &f)
		}
	}
	for ci := range cstate {
		if need[ci] {
			cstate[ci].seal(cl.Clusters[ci].Size)
		}
	}
	return built
}

// buildStore builds the store representation from scratch.
func (p *prepElem) buildStore(frags trace.LogView, cl cluster.Result, met *Metrics) {
	st := &sampleStore{
		assign: cl.Assign,
		cstate: make([]clustState, len(cl.Clusters)),
	}
	p.store = st
	need := make([]bool, len(cl.Clusters))
	for ci := range cl.Clusters {
		need[ci] = cl.Clusters[ci].Fixed
	}
	if built := walkAssign(frags, cl, st.cstate, need, p.factors); met != nil {
		met.OLSRefactors.Add(built)
	}
	st.addSpans(frags, 0)
}

// advanceStore patches the store with an append-only clustering delta,
// in place, in O(batch), and reports whether it could. False means the
// caller must rebuild: the delta is unstructured (Full), it advances
// from a different generation than the prep holds, the options moved,
// or a consistency check failed. Prefix and tail clusters keep their
// state (the tail's under its shifted index), grown emitted clusters
// fold in just their Added members, and rebuilt clusters fold their
// Added lists, which hold their whole memberships. A grown cluster that
// starts to emit had its old members never folded: those clusters are
// walked together in one pass over Assign. The state derived per sample
// absorbs best and coverage movement without touching anything
// resident. Moment work is counted into met, if set.
func (p *prepElem) advanceStore(frags trace.LogView, cl cluster.Result, d cluster.Delta, opt Options, gen stg.Gen, met *Metrics) bool {
	if d.Full || p.copt != opt.Cluster || d.From != p.gen {
		return false
	}
	oldN := p.nfrags
	nn := frags.Len()
	if nn <= oldN || len(cl.Assign) != nn {
		return false
	}
	st := p.store
	oldNC := len(st.cstate)
	newNC := len(cl.Clusters)
	if d.Prefix < 0 || d.Prefix > d.TailNew || d.TailNew > newNC ||
		d.Prefix > d.TailOld || d.TailOld > oldNC ||
		d.TailNew-d.Prefix != len(d.Dirty) ||
		newNC-d.TailNew != oldNC-d.TailOld {
		return false
	}
	// Validate the whole delta before mutating any shared state (the
	// rank tables are updated in place below).
	st.claimed = slices.Grow(st.claimed[:0], d.TailOld-d.Prefix)[:d.TailOld-d.Prefix]
	clear(st.claimed)
	for di, dr := range d.Dirty {
		size := cl.Clusters[d.Prefix+di].Size
		if dr.OldIndex < 0 {
			if len(dr.Added) != size {
				return false
			}
			continue
		}
		if dr.OldIndex < d.Prefix || dr.OldIndex >= d.TailOld || st.claimed[dr.OldIndex-d.Prefix] {
			return false
		}
		st.claimed[dr.OldIndex-d.Prefix] = true
		if os := &st.cstate[dr.OldIndex]; os.emitted && int(os.nStored) != size-len(dr.Added) {
			return false
		}
	}

	newState := make([]clustState, newNC)
	copy(newState, st.cstate[:d.Prefix])
	copy(newState[d.TailNew:], st.cstate[d.TailOld:])

	var need []bool // the clusters walkAssign computes
	var f trace.Fragment
	var adds, rebuilt uint64
	for di, dr := range d.Dirty {
		ci := d.Prefix + di
		cc := &cl.Clusters[ci]
		switch {
		case !cc.Fixed:
			// Small: no member is a sample; the zero state says so.
		case dr.OldIndex < 0:
			// Rebuilt: Added is the whole membership.
			cst := fresh(p.factors)
			for _, m := range dr.Added {
				cst.observe(frags, m, &f)
			}
			cst.seal(cc.Size)
			newState[ci] = cst
			rebuilt++
		case st.cstate[dr.OldIndex].emitted:
			// Grown emitted cluster: only the added members are new.
			cst := st.cstate[dr.OldIndex] // shares (and intentionally updates) the rank table and moments
			for _, m := range dr.Added {
				cst.observe(frags, m, &f)
			}
			cst.nStored += int32(len(dr.Added))
			newState[ci] = cst
			adds += uint64(len(dr.Added))
		default:
			// Grown into emission, or into Fixed: its old members were
			// never folded.
			if need == nil {
				need = make([]bool, newNC)
			}
			need[ci] = true
		}
	}
	if need != nil {
		rebuilt += walkAssign(frags, cl, newState, need, p.factors)
	}
	if met != nil && p.factors != nil {
		met.OLSRank1Updates.Add(adds)
		met.OLSRefactors.Add(rebuilt)
	}

	st.assign = cl.Assign
	st.cstate = newState
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
				cst := &st.cstate[st.assign[pos]]
				if !cst.emitted {
					continue
				}
				if cst.ranks.count(rank) >= minFrag {
					fixed += el
				}
				buf = append(buf, pos)
			}
			if len(buf) > from {
				runs = append(runs, elemRun{sel: buf[from:len(buf):len(buf)], store: p})
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

// sampleAt derives the sample of fragment pos from its span in the log
// and the owning cluster's current state: Perf against its current
// fastest member, Covered from its current per-rank counts.
func (p *prepElem) sampleAt(pos int32, dst *Sample) {
	st := p.store
	ci := st.assign[pos]
	cst := &st.cstate[ci]
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
	dst.ClusterRef.Cluster = int(ci)
}
