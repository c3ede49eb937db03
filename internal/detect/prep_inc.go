package detect

import (
	"math"

	"vapro/internal/cluster"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// advance patches the memoized prep with an append-only clustering
// delta, in place, and reports whether it could. False means the caller
// must rebuild: the delta is unstructured (Full), it advances from a
// different generation than the prep holds, the element is multi-class,
// the options moved, or a consistency check failed.
//
// The patch mirrors what buildPrep would compute, piece by piece:
//
//   - clusters before Delta.Prefix: their sample spans are block-copied
//     (nothing about them changed — membership, best, coverage, index);
//   - clusters after the re-aligned cut: block-copied too, with only
//     the cluster index in each sample adjusted when the cluster count
//     shifted;
//   - grown clusters (DirtyRun.OldIndex >= 0): merge-copied. The
//     fastest member is monotone — it can only improve — so kept
//     samples are renormalized only when a new member actually beat
//     it. Per-rank counts are monotone too, so a rank crosses the
//     coverage threshold at most once; kept samples of crossing ranks
//     flip Covered, everything else keeps its bits;
//   - rebuilt clusters (OldIndex < 0) and clusters newly grown into
//     emission run the fresh per-member walk, but only over their own
//     members.
//
// The span indexes are then extended by merging: the fragment index
// takes the appended spans as one more ordered segment, and the sample
// index remaps its surviving entries (the remap is monotone and samples
// never reorder, so they stay ordered by (start, fragment index)) and
// merges them with the fresh ones. Every piece lands bit-identical to a
// rebuild — pinned by the analyzer equivalence fuzz.
func (p *prepElem) advance(frags trace.LogView, cl cluster.Result, d cluster.Delta, opt Options, gen stg.Gen) bool {
	if p.storeMode() {
		if opt.DisableSampleStore {
			return false // representation mismatch: rebuild flat
		}
		return p.advanceStore(frags, cl, d, opt, gen)
	}
	if d.Full || !p.singleClass || p.cstate == nil || p.copt != opt.Cluster || d.From != p.gen {
		return false
	}
	oldN := p.nfrags
	nn := frags.Len()
	if nn <= oldN || len(cl.Assign) != nn {
		return false
	}
	class := p.class
	for i := oldN; i < nn; i++ {
		if ClassOf(frags.Kind(i)) != class {
			return false
		}
	}
	minFrag := p.minFrag
	oldNC := len(p.cstate)
	newNC := len(cl.Clusters)
	if len(p.spanOff) != oldNC+1 ||
		d.Prefix < 0 || d.Prefix > d.TailNew || d.TailNew > newNC ||
		d.Prefix > d.TailOld || d.TailOld > oldNC ||
		d.TailNew-d.Prefix != len(d.Dirty) ||
		newNC-d.TailNew != oldNC-d.TailOld {
		return false
	}
	old := p.samples[class]
	// Validate every grown run against the old spans before touching
	// any shared state (the rank tables are mutated in place below).
	for di, dr := range d.Dirty {
		if dr.OldIndex < 0 {
			continue
		}
		if dr.OldIndex < d.Prefix || dr.OldIndex >= d.TailOld {
			return false
		}
		cc := &cl.Clusters[d.Prefix+di]
		spanLen := int(p.spanOff[dr.OldIndex+1] - p.spanOff[dr.OldIndex])
		os := &p.cstate[dr.OldIndex]
		if os.emitted {
			if spanLen != len(cc.Members)-len(dr.AddedPos) {
				return false
			}
		} else if spanLen != 0 {
			return false
		}
	}

	prefixEnd := int(p.spanOff[d.Prefix])
	tailOldPos := int(p.spanOff[d.TailOld])
	newSamples := make([]Sample, 0, len(old)+(nn-oldN))
	newSpan := make([]int32, newNC+1)
	newState := make([]clustState, newNC)
	// dirtyRemap maps an old sample position in the dirty region to its
	// new position, -1 when the sample's cluster was rebuilt (its new
	// emission is recorded in fresh instead).
	dirtyRemap := make([]int32, tailOldPos-prefixEnd)
	for i := range dirtyRemap {
		dirtyRemap[i] = -1
	}
	// fresh collects index entries for samples that are new or were
	// re-emitted (anything not reachable through the remap).
	var fresh []spanEnt
	emit := func(m, ci int, st *clustState) {
		s := st.sample(frags, m, p.ref, ci, minFrag)
		fresh = append(fresh, spanEnt{start: s.Start, elapsed: s.Elapsed, pos: int32(len(newSamples)), frag: int32(m), covered: s.Covered})
		newSamples = append(newSamples, s)
	}

	newSamples = append(newSamples, old[:prefixEnd]...)
	copy(newSpan, p.spanOff[:d.Prefix+1])
	copy(newState, p.cstate[:d.Prefix])

	// emitCluster is buildPrep's per-cluster walk, scoped to one
	// cluster: recompute state and (when fixed with a valid best) emit
	// all members.
	emitCluster := func(ci int, cc *cluster.Cluster) {
		if !cc.Fixed {
			return // buildPrep doesn't track small clusters
		}
		st := clustState{best: math.MaxInt64}
		for _, m := range cc.Members {
			st.observe(frags, m)
		}
		if st.emitted = st.best != math.MaxInt64; st.emitted {
			for _, m := range cc.Members {
				emit(m, ci, &st)
			}
		}
		newState[ci] = st
	}

	for di, dr := range d.Dirty {
		ci := d.Prefix + di
		cc := &cl.Clusters[ci]
		newSpan[ci] = int32(len(newSamples))
		if dr.OldIndex < 0 || !p.cstate[dr.OldIndex].emitted || !cc.Fixed {
			// Rebuilt composition, or a cluster whose old emission
			// state can't be extended (was small or had no valid best):
			// walk its members afresh.
			emitCluster(ci, cc)
			continue
		}
		// Grown emitted cluster: merge-copy.
		os := p.cstate[dr.OldIndex]
		st := os // shares (and intentionally updates) the rank table
		var crossed map[int]bool
		for _, ap := range dr.AddedPos {
			rank, slot := st.observe(frags, cc.Members[ap])
			if int(st.ranks.n[slot]) == minFrag {
				if crossed == nil {
					crossed = make(map[int]bool, 2)
				}
				crossed[rank] = true
			}
		}
		bestChanged := st.best != os.best
		oldSpan := old[p.spanOff[dr.OldIndex]:p.spanOff[dr.OldIndex+1]]
		base := int(p.spanOff[dr.OldIndex]) - prefixEnd
		oi, ai := 0, 0
		for mp := range cc.Members {
			if ai < len(dr.AddedPos) && int(dr.AddedPos[ai]) == mp {
				m := cc.Members[mp]
				emit(m, ci, &st)
				ai++
				continue
			}
			s := oldSpan[oi]
			if bestChanged {
				s.Perf = 1.0
				if s.Elapsed > 0 {
					s.Perf = float64(st.best) / float64(s.Elapsed)
				}
			}
			if crossed != nil && !s.Covered && crossed[s.Rank] {
				s.Covered = true
			}
			s.ClusterRef.Cluster = ci
			dirtyRemap[base+oi] = int32(len(newSamples))
			newSamples = append(newSamples, s)
			oi++
		}
		newState[ci] = st
	}

	// Preserved tail: block copy, adjusting only the cluster index.
	tailNewPos := len(newSamples)
	posDelta := tailNewPos - tailOldPos
	shift := d.TailNew - d.TailOld
	if shift == 0 {
		newSamples = append(newSamples, old[tailOldPos:]...)
	} else {
		for _, s := range old[tailOldPos:] {
			s.ClusterRef.Cluster += shift
			newSamples = append(newSamples, s)
		}
	}
	copy(newState[d.TailNew:], p.cstate[d.TailOld:])
	for j := d.TailOld; j <= oldNC; j++ {
		newSpan[d.TailNew+j-d.TailOld] = p.spanOff[j] + int32(posDelta)
	}

	p.countClusters(cl)

	// Fragment index: positions are fragment indexes (single class), so
	// old entries are untouched — merge in the appended spans.
	p.fragIdx[class] = mergeSpans(p.fragIdx[class], fragSpans(frags, oldN))

	// Sample index: remap surviving old entries, drop entries of
	// re-emitted samples, and merge with the fresh entries. maxElapsed
	// may overstate after drops — harmless, candidates() only uses it
	// as a lower bound and every candidate is re-checked exactly.
	{
		fresh = orderSpans(fresh)
		si := &p.sampleIdx[class]
		n2 := len(newSamples)
		merged := spanIndex{
			pos:        make([]int32, 0, n2),
			starts:     make([]int64, 0, n2),
			elapsed:    make([]int64, 0, n2),
			covered:    make([]bool, 0, n2),
			maxElapsed: si.maxElapsed,
		}
		for i := range fresh {
			merged.maxElapsed = max(merged.maxElapsed, fresh[i].elapsed)
		}
		remap := func(op int32) int32 {
			switch {
			case int(op) < prefixEnd:
				return op
			case int(op) >= tailOldPos:
				return op + int32(posDelta)
			default:
				return dirtyRemap[int(op)-prefixEnd]
			}
		}
		i, j := 0, 0
		for i < len(si.starts) || j < len(fresh) {
			var np int32 = -1
			if i < len(si.starts) {
				np = remap(si.pos[i])
				if np < 0 {
					i++ // sample was re-emitted; its fresh entry covers it
					continue
				}
			}
			takeOld := j >= len(fresh)
			if !takeOld && i < len(si.starts) {
				if si.starts[i] != fresh[j].start {
					takeOld = si.starts[i] < fresh[j].start
				} else {
					takeOld = newSamples[np].FragIndex < int(fresh[j].frag)
				}
			}
			if takeOld {
				merged.pos = append(merged.pos, np)
				merged.starts = append(merged.starts, si.starts[i])
				merged.elapsed = append(merged.elapsed, si.elapsed[i])
				merged.covered = append(merged.covered, newSamples[np].Covered)
				i++
			} else {
				f := fresh[j]
				merged.pos = append(merged.pos, f.pos)
				merged.starts = append(merged.starts, f.start)
				merged.elapsed = append(merged.elapsed, f.elapsed)
				merged.covered = append(merged.covered, f.covered)
				j++
			}
		}
		p.sampleIdx[class] = merged
	}

	p.samples[class] = newSamples
	p.spanOff = newSpan
	p.cstate = newState
	p.gen = gen
	p.nfrags = nn
	return true
}
