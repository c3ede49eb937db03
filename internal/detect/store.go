package detect

import (
	"math"

	"vapro/internal/cluster"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// The sample store: the O(new-data) representation of a 1-D element
// (all computation fragments, no extra metrics) — the population the
// online monitor's steady state is made of.
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
// One span index covers every fragment — "is a sample" is a filter on
// it, the coverage denominator is its unfiltered sum. It is segmented
// (the logarithmic method): an advance merges the appended spans' runs
// into one ordered segment and adds it; a segment at least half the
// size of its predecessor is merged into it, so there are O(log n)
// segments and appends amortize to O(log n). Every segment is ordered
// by (start, fragment index), so a window's selection comes back as
// one ordered run per segment and the stream merge never sorts.

// fragRef is the store's per-fragment state.
type fragRef struct {
	cid  int32 // stable id of the emitted cluster the fragment is a sample of; -1: not a sample
	rank int32 // slot of the fragment's rank in that cluster's rank table
}

// sampleStore is the store representation of one element.
type sampleStore struct {
	// refs[i] describes frags[i].
	refs []fragRef
	// spans indexes every fragment's span by fragment position.
	spans segIndex
	// ids[ci] is cluster ci's stable id; slotOf[id] maps an id back to
	// its current cluster index (-1 once retired).
	ids    []int32
	slotOf []int32
	nextID int32
}

// segIndex is a segmented span index over fragment positions.
type segIndex struct {
	segs []spanIndex
}

// add appends one ordered segment of positions newer than everything
// indexed and re-establishes the geometric invariant.
func (ix *segIndex) add(seg spanIndex) {
	if len(seg.pos) == 0 {
		return
	}
	ix.segs = append(ix.segs, seg)
	for n := len(ix.segs); n >= 2 && len(ix.segs[n-1].pos)*2 >= len(ix.segs[n-2].pos); n-- {
		ix.segs[n-2] = mergeSpans(ix.segs[n-2], ix.segs[n-1])
		ix.segs = ix.segs[:n-1]
	}
}

// storeMode reports whether the prep is backed by the sample store.
func (p *prepElem) storeMode() bool { return p.store != nil }

// storeEligible reports whether an element can take the store path:
// the 1-D clustering fast path (all computation fragments, no extra
// metrics).
func storeEligible(frags trace.LogView, opt Options) bool {
	if opt.DisableIncremental || opt.DisableSampleStore || opt.Cluster.UseExtraMetrics || frags.Len() == 0 {
		return false
	}
	return frags.AllKind(0, trace.Comp)
}

// walk computes one cluster's state from its whole membership and
// points every member's ref at it under id.
func (st *sampleStore) walk(frags trace.LogView, c *cluster.Cluster, id int32) clustState {
	cst := clustState{best: math.MaxInt64}
	if c.Fixed {
		for _, m := range c.Members {
			_, slot := cst.observe(frags, m)
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

// buildStore is buildPrep for the store representation.
func (p *prepElem) buildStore(frags trace.LogView, cl cluster.Result) {
	nc := len(cl.Clusters)
	st := &sampleStore{
		refs:   make([]fragRef, frags.Len()),
		ids:    make([]int32, nc),
		slotOf: make([]int32, nc),
		nextID: int32(nc),
	}
	p.store = st
	p.cstate = make([]clustState, nc)
	for ci := range cl.Clusters {
		st.ids[ci], st.slotOf[ci] = int32(ci), int32(ci)
		p.cstate[ci] = st.walk(frags, &cl.Clusters[ci], int32(ci))
	}
	st.spans.add(fragSpans(frags, 0))
}

// advanceStore is advance() for the store representation: O(batch).
// Prefix and tail clusters keep their state (only the tail's slot
// mapping shifts), grown emitted clusters point just their added
// members at themselves, and rebuilt clusters re-point their whole
// membership under a fresh id. The state derived per sample absorbs
// best and coverage movement without touching anything resident.
func (p *prepElem) advanceStore(frags trace.LogView, cl cluster.Result, d cluster.Delta, opt Options, gen stg.Gen) bool {
	if d.Full || p.copt != opt.Cluster || d.From != p.gen {
		return false
	}
	oldN := p.nfrags
	nn := frags.Len()
	if nn <= oldN || len(cl.Assign) != nn || !frags.AllKind(oldN, trace.Comp) {
		return false
	}
	st := p.store
	oldNC := len(p.cstate)
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
	claimed := make(map[int]bool, len(d.Dirty))
	for di, dr := range d.Dirty {
		if dr.OldIndex < 0 {
			continue
		}
		if dr.OldIndex < d.Prefix || dr.OldIndex >= d.TailOld || claimed[dr.OldIndex] {
			return false
		}
		claimed[dr.OldIndex] = true
		if os := &p.cstate[dr.OldIndex]; os.emitted &&
			int(os.nStored) != len(cl.Clusters[d.Prefix+di].Members)-len(dr.AddedPos) {
			return false
		}
	}

	newIDs := make([]int32, newNC)
	newState := make([]clustState, newNC)
	copy(newIDs, st.ids[:d.Prefix])
	copy(newState, p.cstate[:d.Prefix])
	copy(newIDs[d.TailNew:], st.ids[d.TailOld:])
	copy(newState[d.TailNew:], p.cstate[d.TailOld:])

	st.refs = append(st.refs, make([]fragRef, nn-oldN)...)
	for di, dr := range d.Dirty {
		ci := d.Prefix + di
		cc := &cl.Clusters[ci]
		if dr.OldIndex >= 0 && p.cstate[dr.OldIndex].emitted && cc.Fixed {
			// Grown emitted cluster: only the added members are new.
			cst := p.cstate[dr.OldIndex] // shares (and intentionally updates) the rank table
			id := st.ids[dr.OldIndex]
			for _, ap := range dr.AddedPos {
				m := cc.Members[ap]
				_, slot := cst.observe(frags, m)
				st.refs[m] = fragRef{cid: id, rank: slot}
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
	p.cstate = newState
	p.countClusters(cl)
	st.spans.add(fragSpans(frags, oldN))
	p.gen = gen
	p.nfrags = nn
	return true
}

// windowStore fills the element's window contribution from the store:
// one candidate band per segment, "is a sample" through the fragment's
// ref, the covered sum through the rank slot recorded at append — no
// per-sample hashing — and one ordered run per segment.
func (p *prepElem) windowStore(start, end int64, out *elemOut) {
	st := p.store
	segs := st.spans.segs
	type band struct{ lo, hi int }
	bands := make([]band, len(segs))
	cand := 0
	for si := range segs {
		lo, hi := segs[si].candidates(start, end)
		bands[si] = band{lo, hi}
		cand += hi - lo
	}
	if cand == 0 {
		return
	}
	minFrag := int32(p.minFrag)
	buf := make([]int32, 0, cand)
	runs := make([]elemRun, 0, len(segs))
	var total, fixed int64
	for si := range segs {
		s := &segs[si]
		from := len(buf)
		for i := bands[si].lo; i < bands[si].hi; i++ {
			el := s.elapsed[i]
			if s.starts[i]+el <= start {
				continue
			}
			total += el
			ref := st.refs[s.pos[i]]
			if ref.cid < 0 {
				continue
			}
			if p.cstate[st.slotOf[ref.cid]].ranks.n[ref.rank] >= minFrag {
				fixed += el
			}
			buf = append(buf, int32(i))
		}
		if len(buf) > from {
			runs = append(runs, elemRun{ix: s, sel: buf[from:len(buf):len(buf)], store: p})
		}
	}
	out.runs[p.class] = runs
	out.total[p.class] = total
	out.fixed[p.class] = fixed
}

// sampleAt derives the sample of entry i of segment s from the owning
// cluster's current state: Perf against its current fastest member,
// Covered from its current per-rank counts, the cluster index through
// the slot map.
func (p *prepElem) sampleAt(s *spanIndex, i int32, dst *Sample) {
	st := p.store
	pos := s.pos[i]
	ref := st.refs[pos]
	slot := st.slotOf[ref.cid]
	cst := &p.cstate[slot]
	el := s.elapsed[i]
	perf := 1.0
	if el > 0 {
		perf = float64(cst.best) / float64(el)
	}
	*dst = Sample{
		Rank:       cst.ranks.rank[ref.rank],
		Start:      s.starts[i],
		Elapsed:    el,
		Perf:       perf,
		Covered:    cst.ranks.n[ref.rank] >= int32(p.minFrag),
		ClusterRef: p.ref,
		FragIndex:  int(pos),
	}
	dst.ClusterRef.Cluster = int(slot)
}
