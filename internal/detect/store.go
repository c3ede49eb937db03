package detect

import (
	"math"
	"slices"
	"sort"

	"vapro/internal/cluster"
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
// therefore keeps no samples at all. Position i describes frags[i] with
// eight bytes — which cluster it belongs to, under an id that survives
// the cluster's index shifting, and which slot of that cluster's rank
// table its rank occupies — and a sample is derived as it is written
// into a window's stream. An append writes the appended positions and
// nothing else; a cluster whose composition changed re-points its own
// members under a fresh id. Nothing is ever dead, so there is nothing
// to compact.
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
// from the element's log (trace.LogView.StartElapsed), which holds them
// once already. They are the same int64s a copy would hold, so every
// comparison and sum comes out bit for bit as over a column index (the
// oracle's).

// fragRef is the store's per-fragment state.
type fragRef struct {
	cid  int32 // stable id of the emitted cluster the fragment is a sample of; -1: not a sample
	rank int32 // slot of the fragment's rank in that cluster's rank table
}

// sampleStore is the store representation of one element.
type sampleStore struct {
	// refs[i] describes frags[i].
	refs []fragRef
	// spans[c] indexes the spans of the class-c fragments by fragment
	// position.
	spans [numClasses]segIndex
	// cstate[ci] is cluster ci's normalization state.
	cstate []clustState
	// ids[ci] is cluster ci's stable id; slotOf[id] maps an id back to
	// its current cluster index (-1 once retired).
	ids    []int32
	slotOf []int32
	nextID int32

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

// startAt reads fragment p's start, the key every segment is ordered by.
func startAt(frags trace.LogView, p int32) int64 {
	s, _ := frags.StartElapsed(int(p))
	return s
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
	starts := make([]int64, n-from) // starts[i-from]: row i's start, the sort key
	for i := from; i < n; i++ {
		c := only
		if c < 0 {
			c = int(ClassOf(frags.Kind(i)))
		}
		s, el := frags.StartElapsed(i)
		starts[i-from] = s
		out[c].pos = append(out[c].pos, int32(i))
		out[c].maxElapsed = max(out[c].maxElapsed, el)
	}
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

// walk computes one cluster's state from its whole membership and
// points every member's ref at it under id.
func (st *sampleStore) walk(frags trace.LogView, c *cluster.Cluster, id int32) clustState {
	cst := clustState{best: math.MaxInt64}
	if c.Fixed {
		for _, m := range c.Members {
			slot := cst.observe(frags, m)
			st.refs[m] = fragRef{cid: id, rank: slot}
		}
	}
	if cst.best == math.MaxInt64 {
		// Small, or fixed with no positive elapsed: no member is a sample.
		for _, m := range c.Members {
			st.refs[m].cid = -1
		}
		return clustState{}
	}
	cst.emitted = true
	cst.nStored = int32(len(c.Members))
	return cst
}

// buildStore builds the store representation from scratch.
func (p *prepElem) buildStore(frags trace.LogView, cl cluster.Result) {
	nc := len(cl.Clusters)
	st := &sampleStore{
		refs:   make([]fragRef, frags.Len()),
		cstate: make([]clustState, nc),
		ids:    make([]int32, nc),
		slotOf: make([]int32, nc),
		nextID: int32(nc),
	}
	p.store = st
	for ci := range cl.Clusters {
		st.ids[ci], st.slotOf[ci] = int32(ci), int32(ci)
		st.cstate[ci] = st.walk(frags, &cl.Clusters[ci], int32(ci))
	}
	st.addSpans(frags, 0)
}

// advanceStore patches the store with an append-only clustering delta,
// in place, in O(batch), and reports whether it could. False means the
// caller must rebuild: the delta is unstructured (Full), it advances
// from a different generation than the prep holds, the options moved,
// or a consistency check failed. Prefix and tail clusters keep their
// state (only the tail's slot mapping shifts), grown emitted clusters
// point just their added members at themselves, and rebuilt clusters
// re-point their whole membership under a fresh id. The state derived
// per sample absorbs best and coverage movement without touching
// anything resident.
func (p *prepElem) advanceStore(frags trace.LogView, cl cluster.Result, d cluster.Delta, opt Options, gen stg.Gen) bool {
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
	if len(st.ids) != oldNC ||
		d.Prefix < 0 || d.Prefix > d.TailNew || d.TailNew > newNC ||
		d.Prefix > d.TailOld || d.TailOld > oldNC ||
		d.TailNew-d.Prefix != len(d.Dirty) ||
		newNC-d.TailNew != oldNC-d.TailOld {
		return false
	}
	// Validate the whole delta before mutating any shared state (refs
	// and the rank tables are updated in place below).
	st.claimed = slices.Grow(st.claimed[:0], d.TailOld-d.Prefix)[:d.TailOld-d.Prefix]
	clear(st.claimed)
	for di, dr := range d.Dirty {
		if dr.OldIndex < 0 {
			continue
		}
		if dr.OldIndex < d.Prefix || dr.OldIndex >= d.TailOld || st.claimed[dr.OldIndex-d.Prefix] {
			return false
		}
		st.claimed[dr.OldIndex-d.Prefix] = true
		if os := &st.cstate[dr.OldIndex]; os.emitted &&
			int(os.nStored) != len(cl.Clusters[d.Prefix+di].Members)-len(dr.AddedPos) {
			return false
		}
	}

	newIDs := make([]int32, newNC)
	newState := make([]clustState, newNC)
	copy(newIDs, st.ids[:d.Prefix])
	copy(newState, st.cstate[:d.Prefix])
	copy(newIDs[d.TailNew:], st.ids[d.TailOld:])
	copy(newState[d.TailNew:], st.cstate[d.TailOld:])

	st.refs = append(st.refs, make([]fragRef, nn-oldN)...)
	for di, dr := range d.Dirty {
		ci := d.Prefix + di
		cc := &cl.Clusters[ci]
		if dr.OldIndex >= 0 && st.cstate[dr.OldIndex].emitted && cc.Fixed {
			// Grown emitted cluster: only the added members are new.
			cst := st.cstate[dr.OldIndex] // shares (and intentionally updates) the rank table
			id := st.ids[dr.OldIndex]
			for _, ap := range dr.AddedPos {
				m := cc.Members[ap]
				st.refs[m] = fragRef{cid: id, rank: cst.observe(frags, m)}
			}
			cst.nStored += int32(len(dr.AddedPos))
			newIDs[ci], newState[ci] = id, cst
			continue
		}
		// Rebuilt composition, a cluster newly grown into emission, or a
		// still-small cluster: fresh walk under a fresh id (the old id —
		// if any — is simply not carried forward).
		newIDs[ci] = st.nextID
		newState[ci] = st.walk(frags, cc, st.nextID)
		st.nextID++
	}

	// Commit: retire the ids not carried forward, install the new ones.
	for _, id := range st.ids {
		st.slotOf[id] = -1
	}
	for int(st.nextID) > len(st.slotOf) {
		st.slotOf = append(st.slotOf, -1)
	}
	for ci, id := range newIDs {
		st.slotOf[id] = int32(ci)
	}
	st.ids = newIDs
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
// ref, the covered sum through the rank slot recorded at append — no
// per-sample hashing — and one ordered run per segment. A window that
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
				s, el := frags.StartElapsed(int(pos))
				if s+el <= start {
					continue
				}
				total += el
				ref := st.refs[pos]
				if ref.cid < 0 {
					continue
				}
				if st.cstate[st.slotOf[ref.cid]].ranks.n[ref.rank] >= minFrag {
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
// fastest member, Covered from its current per-rank counts, the cluster
// index through the slot map.
func (p *prepElem) sampleAt(pos int32, dst *Sample) {
	st := p.store
	ref := st.refs[pos]
	slot := st.slotOf[ref.cid]
	cst := &st.cstate[slot]
	start, el := p.frags.StartElapsed(int(pos))
	perf := 1.0
	if el > 0 {
		perf = float64(cst.best) / float64(el)
	}
	*dst = Sample{
		Rank:       cst.ranks.rank[ref.rank],
		Start:      start,
		Elapsed:    el,
		Perf:       perf,
		Covered:    cst.ranks.n[ref.rank] >= int32(p.minFrag),
		ClusterRef: p.ref,
		FragIndex:  int(pos),
	}
	dst.ClusterRef.Cluster = int(slot)
}
