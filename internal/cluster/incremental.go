// Incremental clustering: the delta path behind Cache.RunInc.
//
// The online monitor appends small fragment batches to elements that
// already hold large resident populations; re-running Algorithm 1 from
// scratch costs O(total·log total) per tick. For the dominant 1-D
// TOT_INS population the greedy cut has a structural property that
// makes a delta recompute possible: once a candidate fails the absorb
// test, every later (larger-norm) candidate fails it too, so every
// cluster is a CONTIGUOUS RUN of the norm-sorted order and the next
// seed is always the first fragment past the previous run. An append
// therefore only perturbs the runs its insertions land in (plus a
// bounded cascade to the right, until a recomputed cut lines up with an
// old one again); everything before the first insertion and after the
// re-aligned cut is carried over untouched. Between two insertion
// sites the same re-alignment argument lets the recompute skip ahead:
// once a cut matches an old cut, the old runs up to the next
// insertion's predecessor are reproduced verbatim and only the run the
// insertion lands in is re-run, so a batch scattered across the whole
// norm range costs the sum of the runs it touches, not the span
// between its extremes.
//
// Multi-dimensional elements (UseExtraMetrics, comm/IO vertices) have
// no contiguity guarantee, but the greedy pass still has the structure
// a delta needs: seeds are taken in norm order, scans only run forward,
// and a seed's reach is bounded by its norm band [seed, seed·(1+t)].
// So an appended fragment with norm nb can only be absorbed by a
// cluster whose band limit reaches nb — every cluster with a smaller
// limit reproduces verbatim — and a cluster that does reach it absorbs
// it iff the full squared-distance test passes, without re-scanning the
// cluster's resident members at all (old-vs-old absorb decisions cannot
// change when the only new candidates are the insertions). The state
// caches norms and the norm-sorted order, so an advance re-sorts nothing
// resident; the few resident vectors it needs (a reaching cluster's
// seed, a candidate a new seed might steal) are read back from the log's
// lanes. The one case it cannot patch is an insertion that seeds a NEW
// cluster and steals a resident fragment from a later cluster — that
// restructures the partition and falls back to the batch path (counted
// separately, see Cache.IncFallbackReasons).
//
// Bit-identity with Run is non-negotiable — an advanced Result is
// reflect.DeepEqual to Run's on the same log (the equivalence fuzz pins
// it) — which dictates two details: the sorted order must be the exact
// stable order Run produces — ties broken by ascending fragment index,
// which a backward merge of the old order with the sorted new batch
// preserves because new fragments always carry the largest indices —
// and the absorb test must be the exact float expression Run evaluates:
// norms[cand]-norms[seed] <= seedNorm*Threshold in 1-D (NOT the
// algebraically equal norms[cand] <= seedNorm*(1+Threshold), which
// rounds differently) and distSq(cand, seed) <= (seedNorm*Threshold)²
// in multi-D. A Cluster lists no members — membership is Assign — so
// an advance hands the fragments that moved to consumers in its Delta:
// each dirty run's Added, owned by the Delta.
package cluster

import (
	"math"
	"slices"
	"sort"

	"vapro/internal/stg"
	"vapro/internal/trace"
)

// DirtyRun describes one recomputed cluster inside a Delta.
type DirtyRun struct {
	// OldIndex is the cluster of the previous Result whose membership
	// this cluster extends (new members = old members plus Added), or -1
	// when the cluster was rebuilt from fragments that previously
	// belonged to other clusters or arrived in this advance.
	OldIndex int
	// Added lists the fragments the cluster gained: with OldIndex >= 0
	// the appended fragments it absorbed, with OldIndex < 0 its whole
	// membership. The Delta owns the lists; nothing the cluster state
	// keeps aliases them. Their order is unspecified.
	Added []int32
}

// Delta tells a consumer how a Result evolved from the Result of the
// previous generation, so derived state (normalized series, span
// indexes) can be patched instead of rebuilt.
type Delta struct {
	// From is the generation the delta advances from; a consumer whose
	// derived state is pinned to a different generation must rebuild.
	From stg.Gen
	// Full marks a batch recompute: no structural relationship to the
	// previous Result is known.
	Full bool
	// Prefix: clusters [0, Prefix) are identical to the old clusters at
	// the same indexes (same members, seed, flags).
	Prefix int
	// TailNew/TailOld: new clusters [TailNew, len) equal old clusters
	// [TailOld, oldLen) member-for-member; only the cluster index
	// shifted by TailNew-TailOld.
	TailNew, TailOld int
	// Dirty has one entry per middle cluster Prefix+i: recomputed runs
	// and — when the cascade re-aligned between two insertion sites —
	// old runs carried over verbatim (OldIndex set, empty Added).
	Dirty []DirtyRun
	// Ratio is the fraction of the sorted order the recompute spanned.
	Ratio float64
}

// unchangedDelta builds the delta of a cache hit: nothing recomputed.
func unchangedDelta(from stg.Gen, nClusters int) Delta {
	return Delta{From: from, Prefix: nClusters, TailNew: nClusters, TailOld: nClusters}
}

// fallbackReason classifies why an incremental advance was abandoned.
type fallbackReason uint8

const (
	fbNone fallbackReason = iota
	// fbMultiD: a structural multi-D event the delta cannot patch — the
	// element changed vector shape (a 1-D state saw a non-computation
	// arrival, forcing a multi-D recapture), or an appended fragment
	// seeded a new cluster that steals resident members.
	fbMultiD
	// fbDirty: the recompute span exceeded Options.MaxDirtyRatio.
	fbDirty
)

// midRun is one cluster of a 1-D update's middle region [r0, tailOld):
// either a greedy-recomputed run or an old run carried over verbatim
// because the cascade re-aligned before the next insertion (skip=true).
type midRun struct {
	a, b   int32 // span in the new sorted order
	oldIdx int32 // skip: the old cluster reproduced verbatim
	skip   bool
}

// incState is the persistent per-element state behind the incremental
// path: the norm-sorted order and the cut structure of the previous
// clustering — per fragment a 4-byte order entry, plus an 8-byte norm
// on the multi-D path (a 1-D norm is read back from the log). The Assign
// backing is shared with the Results. Guarded by the owning cache
// entry's mutex.
type incState struct {
	// multiD marks an element on the vector path: clusters are tracked
	// by seed position instead of contiguous runs.
	multiD bool
	// dead marks a state that cannot advance any more (the element
	// changed vector shape); the next advance falls back and recaptures.
	dead bool
	// n is the fragment count the state describes.
	n     int
	norms []float64 // multi-D only
	tot   totTable  // 1-D only
	// order is the stable norm-sorted fragment order (Run's line 2).
	order []int32
	// runStart[i] is the position in order where cluster i begins;
	// runStart[len(clusters)] == n. Valid because 1-D clusters are
	// contiguous runs of the sorted order. 1-D only.
	runStart []int32
	// seedPos[i] is the position in order of cluster i's seed. Seeds
	// are taken in position order, so it is ascending. Multi-D only.
	seedPos []int32
	// assign is the grow-only backing array behind the Assign slices of
	// the Results produced so far. An advance whose patches all land in
	// the appended suffix (every dirty run kept its index and the tail
	// did not shift) extends it in place and hands out a longer
	// length-capped view — older Results only see their own prefix, so
	// sharing is safe. Any advance that must rewrite a prefix entry
	// clones to a fresh array first and adopts that as the new backing.
	assign []int32
}

// totTable reads a 1-D element's norms back from its log: entry c is
// chunk c's TOT_INS lane, or nil and the value the lane is constant at.
type totTable []totLane

type totLane struct {
	arr *[trace.LogChunkRows]uint64
	c   uint64
}

// refresh brings the table up to frags: an entry for every new chunk,
// and a fresh one for the chunk the previous view ended in, whose lane
// may have become an array since. Full chunks never change.
func (t *totTable) refresh(frags trace.LogView) {
	nc := (frags.Len() + trace.LogChunkRows - 1) / trace.LogChunkRows
	*t = (*t)[:max(len(*t)-1, 0)]
	for c := len(*t); c < nc; c++ {
		arr, k := frags.TotInsLane(c)
		*t = append(*t, totLane{arr, k})
	}
}

// norm returns fragment i's norm, by the expression Run computes it with.
func (t totTable) norm(i int32) float64 {
	l := &t[uint32(i)/trace.LogChunkRows]
	if l.arr == nil {
		return float64(l.c)
	}
	return float64(l.arr[uint32(i)%trace.LogChunkRows])
}

// norm returns fragment i's norm: cached on the multi-D path, read back
// from the log in 1-D.
func (s *incState) norm(i int32) float64 {
	if s.multiD {
		return s.norms[i]
	}
	return s.tot.norm(i)
}

// mergeAppended orders the appended fragments [s.n, s.n+len(bnorms)) —
// fragment s.n+j has norm bnorms[j] — by (norm, index) and merges them
// into s.order, preserving Run's exact stable order (on a norm tie the
// resident fragment goes first — its index is smaller than every
// appended index). It returns the sorted new fragment ids, their final
// merged positions (ascending), and their insertion points among the old
// order (ascending), all three in sc.
func (s *incState) mergeAppended(bnorms []float64, sc *scratch) (batch, inserted, ipos []int32) {
	k := len(bnorms)
	keys := sortNormKeys(&sc.keys, bnorms, int32(s.n))

	// One galloping merge finds every insertion point among the old
	// elements: the batch is ascending, so each search resumes where the
	// previous one ended and doubles its stride until it overshoots — the
	// probes stay near the last insertion instead of re-bisecting the
	// whole resident order k times. Every probe reads the norm of a row
	// scattered across the log, so the first stride is the gap the
	// remaining keys leave on average: a typical search overshoots at once
	// and bisects that gap, instead of doubling up to it from one. The
	// displaced old spans then shift right in chunks: the byte traffic of
	// an element-wise backward walk without a norm compare and branch per
	// moved element.
	sc.batch, sc.inserted, sc.ipos = resize(sc.batch, k), resize(sc.inserted, k), resize(sc.ipos, k)
	batch = sc.batch
	inserted = sc.inserted // final positions of the batch, ascending
	ipos = sc.ipos         // insertion points among the old order
	order := s.order
	lo := 0
	for j, key := range keys {
		norm := bnorms[int(key.idx)-s.n]
		hi, step := lo, max(1, (s.n-lo)/(k-j))
		for hi < s.n && s.norm(order[hi]) <= norm {
			lo, hi, step = hi+1, hi+step, step<<1
		}
		for hi = min(hi, s.n); lo < hi; {
			if mid := int(uint(lo+hi) >> 1); s.norm(order[mid]) <= norm {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		batch[j] = key.idx
		ipos[j] = int32(lo)
		inserted[j] = int32(lo + j)
	}
	s.order = append(s.order, batch...)
	order = s.order
	moveHi := int32(s.n) // old positions [ipos[j], moveHi) still to shift
	for j := k - 1; j >= 0; j-- {
		copy(order[int(ipos[j])+j+1:int(moveHi)+j+1], order[ipos[j]:moveHi])
		order[inserted[j]] = batch[j]
		moveHi = ipos[j]
	}
	return batch, inserted, ipos
}

// normKey is an appended fragment's sort key: the radix image of its
// norm and its fragment index.
type normKey struct {
	key uint64
	idx int32
}

// radixNorm maps a norm to a uint64 whose unsigned order is
// cmp.Compare's order on float64: NaN first (0), −0 folded onto +0, and
// every other value by the sign-flip transform (a negative has all its
// bits inverted, a non-negative its sign bit set).
func radixNorm(x float64) uint64 {
	switch b := math.Float64bits(x); {
	case x != x:
		return 0
	case x == 0:
		return 1 << 63
	case b>>63 != 0:
		return ^b
	default:
		return b | 1<<63
	}
}

// sortNormKeys returns the keys of norms — fragment indexes base,
// base+1, … — ordered by (norm, index) under cmp.Compare, by a stable
// LSD radix sort on radixNorm: one 8-bit digit per pass, skipping every
// pass whose digit is the same in all keys. The keys start in index
// order and each pass is stable, so equal norms stay in index order.
// *buf is the sort's scratch, grown as needed; the result aliases it.
func sortNormKeys(buf *[]normKey, norms []float64, base int32) []normKey {
	k := len(norms)
	*buf = resize(*buf, 2*k)
	keys, tmp := (*buf)[:k], (*buf)[k:]
	var count [8][256]int32
	for i, x := range norms {
		keys[i] = normKey{radixNorm(x), base + int32(i)}
		for p := range count {
			count[p][byte(keys[i].key>>(8*p))]++
		}
	}
	for p := range count {
		c := &count[p]
		if k == 0 || c[byte(keys[0].key>>(8*p))] == int32(k) {
			continue // a single digit value: the pass would move nothing
		}
		sum := int32(0)
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		for _, key := range keys {
			d := byte(key.key >> (8 * p))
			tmp[c[d]], c[d] = key, c[d]+1
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// update advances the state with the appended suffix frags[s.n:] and
// returns the new Result plus its Delta (Delta.From is filled by the
// caller). ok=false means the state cannot advance incrementally — the
// returned fallbackReason says why — and the caller must re-cluster
// from scratch; the state is then stale and must be recaptured.
func (s *incState) update(frags trace.LogView, prev Result, opt Options) (Result, Delta, bool, fallbackReason) {
	k := frags.Len() - s.n
	if s.dead || k <= 0 {
		return Result{}, Delta{}, false, fbMultiD
	}
	sc := advancePool.Get().(*scratch)
	defer advancePool.Put(sc)
	if s.multiD {
		return s.updateMultiD(frags, prev, opt, sc)
	}
	if !frags.AllKind(s.n, trace.Comp) {
		// The element left the 1-D domain; the cached state has no
		// vectors, so fall back once and recapture as multi-D.
		s.dead = true
		return Result{}, Delta{}, false, fbMultiD
	}
	total := frags.Len()
	s.tot.refresh(frags)
	tot := s.tot
	sc.norms = resize(sc.norms, k)
	for j := range sc.norms {
		sc.norms[j] = tot.norm(int32(s.n + j))
	}

	batch, inserted, _ := s.mergeAppended(sc.norms, sc)
	order := s.order

	// The recompute starts at the run containing the predecessor of the
	// first insertion: an insertion can extend the preceding run.
	// The predecessor's position is unchanged by the merge: all
	// insertions are at >= inserted[0].
	oldNC := len(prev.Clusters)
	pred := int(inserted[0]) - 1
	r0 := max(sort.Search(oldNC, func(r int) bool { return int(s.runStart[r]) > pred })-1, 0)
	startPos := int(s.runStart[r0]) // no insertions precede it, so old == new coords

	maxSpan := int(opt.MaxDirtyRatio * float64(total))
	t := opt.Threshold
	mids := sc.mids[:0]
	tailOld := oldNC // old cluster index where the preserved tail begins (oldNC: none)
	insIdx := 0      // insertions at positions < pos
	convPtr := r0    // old-run pointer for the convergence check
	pos := startPos
	work := 0 // positions actually re-run through the greedy loop
	for pos < total {
		// Convergence check: when the current cut lines up with an old
		// cut, the greedy process — memoryless from a boundary, over an
		// unchanged span — reproduces the old partition verbatim until
		// the next insertion. With no insertions left that means the
		// whole old tail can be spliced; otherwise old runs are carried
		// over unrecomputed up to the run containing the next
		// insertion's predecessor (which the insertion may extend, so
		// the greedy re-run resumes there).
		op := pos - insIdx // old coordinates of pos
		for convPtr < oldNC && int(s.runStart[convPtr]) < op {
			convPtr++
		}
		if convPtr < oldNC && int(s.runStart[convPtr]) == op {
			if insIdx == k {
				tailOld = convPtr
				break
			}
			opred := int(inserted[insIdx]) - 1 - insIdx
			rNext := convPtr
			for rNext+1 < oldNC && int(s.runStart[rNext+1]) <= opred {
				rNext++
			}
			if rNext > convPtr {
				for r := convPtr; r < rNext; r++ {
					mids = append(mids, midRun{
						a:      s.runStart[r] + int32(insIdx),
						b:      s.runStart[r+1] + int32(insIdx),
						oldIdx: int32(r),
						skip:   true,
					})
				}
				convPtr = rNext
				pos = int(s.runStart[rNext]) + insIdx
			}
		}
		if work > maxSpan {
			return Result{}, Delta{}, false, fbDirty
		}
		// One greedy run, bit-identical to Run's inner loop: in 1-D the
		// absorbed candidates are exactly the contiguous span where
		// norms[cand]-norms[seed] <= seedNorm*Threshold (for a zero
		// seed norm both sides are 0, matching Run's zero special
		// case). The norms are sorted along order, so the absorb
		// predicate is monotone and the cut is a binary search away —
		// the run's length no longer prices its recompute.
		sn := tot.norm(order[pos])
		maxDist := sn * t
		e := pos + sort.Search(total-pos, func(i int) bool {
			return tot.norm(order[pos+i])-sn > maxDist
		})
		mids = append(mids, midRun{a: int32(pos), b: int32(e)})
		work += e - pos
		pos = e
		for insIdx < k && int(inserted[insIdx]) < pos {
			insIdx++
		}
	}

	sc.mids = mids

	// Assemble the new Result: untouched clusters are copied from prev, a
	// dirty run's membership goes into the Delta's Added lists.
	tailNew := r0 + len(mids)
	shift := tailNew - tailOld
	nc := tailNew + (oldNC - tailOld)
	clusters := make([]Cluster, 0, nc)
	clusters = append(clusters, prev.Clusters[:r0]...)

	dirty := make([]DirtyRun, 0, len(mids))
	// added backs the Added lists of grown runs, which hold only appended
	// fragments, so it never outgrows k; a rebuilt run's list is its own.
	added := make([]int32, 0, k)
	ai := 0        // pointer into inserted
	matchPtr := r0 // old-run pointer for grown-run matching
	small := prev.Small
	for i := r0; i < tailOld; i++ {
		if !prev.Clusters[i].Fixed {
			small--
		}
	}
	for _, r := range mids {
		if r.skip {
			// Carried over verbatim: share the old Cluster struct; the
			// delta records it as a grown run with nothing added.
			c := prev.Clusters[r.oldIdx]
			if !c.Fixed {
				small++
			}
			clusters = append(clusters, c)
			dirty = append(dirty, DirtyRun{OldIndex: int(r.oldIdx)})
			if matchPtr <= int(r.oldIdx) {
				matchPtr = int(r.oldIdx) + 1
			}
			continue
		}
		insStart := ai
		for ai < k && inserted[ai] < r.b {
			ai++
		}
		// Old coordinates of the run's non-inserted span: positions
		// before r.a lost insStart insertions, before r.b lost ai.
		aOld, bOld := int(r.a)-insStart, int(r.b)-ai
		oldIdx := -1
		for matchPtr < tailOld && int(s.runStart[matchPtr]) < aOld {
			matchPtr++
		}
		if bOld > aOld && matchPtr < tailOld &&
			int(s.runStart[matchPtr]) == aOld && int(s.runStart[matchPtr+1]) == bOld {
			// The run's surviving members are exactly old cluster
			// matchPtr: it only grew.
			oldIdx = matchPtr
		}
		var gained []int32
		if oldIdx >= 0 {
			// Grown run: the old members stay, the insertions join.
			from := len(added)
			added = append(added, batch[insStart:ai]...)
			gained = added[from:len(added):len(added)]
		} else {
			gained = slices.Clone(order[r.a:r.b])
		}
		size := int(r.b - r.a)
		c := Cluster{
			Size:     size,
			Seed:     int(order[r.a]),
			SeedNorm: tot.norm(order[r.a]),
			Fixed:    size >= opt.MinFragments,
		}
		if !c.Fixed {
			small++
		}
		clusters = append(clusters, c)
		dirty = append(dirty, DirtyRun{OldIndex: oldIdx, Added: gained})
	}
	clusters = append(clusters, prev.Clusters[tailOld:]...)

	assign := s.commitAssign(prev, dirty, r0, tailOld, shift, k)
	res := Result{Clusters: clusters, Assign: assign[:total:total], Small: small}

	// Commit the state.
	newRunStart := make([]int32, 0, nc+1)
	newRunStart = append(newRunStart, s.runStart[:r0]...)
	for _, r := range mids {
		newRunStart = append(newRunStart, r.a)
	}
	for i := tailOld; i <= oldNC; i++ {
		newRunStart = append(newRunStart, s.runStart[i]+int32(k))
	}
	s.runStart = newRunStart
	s.n = total

	d := Delta{
		Prefix:  r0,
		TailNew: tailNew,
		TailOld: tailOld,
		Dirty:   dirty,
		Ratio:   float64(work) / float64(total),
	}
	return res, d, true, fbNone
}

// commitAssign builds the Assign backing of an advance: when every
// dirty run kept its cluster index and the tail did not shift, the only
// entries that differ from prev.Assign are the k appended members —
// extend the shared grow-only backing in place (older Results hold
// length-capped prefixes of it, which the suffix writes cannot reach)
// and skip the O(n) prefix copy entirely. Otherwise clone prev's
// entries into a fresh array, remap every surviving old cluster index
// to its new one in one pass, write the Added lists, and adopt the
// clone as the new backing.
func (s *incState) commitAssign(prev Result, dirty []DirtyRun, r0, tailOld, shift, k int) []int32 {
	shared := shift == 0 && s.assign != nil && len(prev.Assign) == s.n &&
		(s.n == 0 || &prev.Assign[0] == &s.assign[0])
	if shared {
		for i := range dirty {
			if dirty[i].OldIndex != r0+i {
				shared = false
				break
			}
		}
	}
	var assign []int32
	if shared {
		s.assign = append(s.assign, make([]int32, k)...)
		assign = s.assign
	} else {
		// append with a full-sliced base reallocates — growslice does not
		// zero noscan memory, so the cost is one memmove of the prefix,
		// not a zero+copy of the whole array.
		assign = append(prev.Assign[:s.n:s.n], make([]int32, k)...)
		// remap[o-r0] is the new index of middle cluster o, or -1 when o
		// dissolved into rebuilt runs, whose Added lists rewrite its
		// members below.
		remap := make([]int32, tailOld-r0)
		for i := range remap {
			remap[i] = -1
		}
		for i := range dirty {
			if o := dirty[i].OldIndex; o >= 0 {
				remap[o-r0] = int32(r0 + i)
			}
		}
		lo, hi := int32(r0), int32(tailOld)
		for m, a := range assign[:s.n] {
			switch {
			case a < lo:
			case a >= hi:
				assign[m] = a + int32(shift)
			default:
				assign[m] = remap[a-lo]
			}
		}
		s.assign = assign
	}
	for i := range dirty {
		ci := int32(r0 + i)
		for _, m := range dirty[i].Added {
			assign[m] = ci
		}
	}
	return assign
}

// updateMultiD advances a multi-D state. The cached norms and sorted
// order make the append O(merge + reachable clusters): appended
// fragments merge into the order without re-vectorizing or re-sorting
// residents, clusters whose norm band cannot reach the smallest
// appended norm reproduce verbatim (prefix) or are carried over
// (skips), and a cluster whose band does reach an insertion decides
// membership with the exact squared-distance test against its seed —
// no resident member is re-scanned, because old-vs-old absorb
// decisions cannot change when the only new candidates are insertions.
// An insertion no cluster absorbs seeds a new cluster; if that new
// cluster would steal a resident fragment from a later cluster the
// partition is restructured beyond what a delta can express and the
// advance falls back (fbMultiD).
func (s *incState) updateMultiD(frags trace.LogView, prev Result, opt Options, sc *scratch) (Result, Delta, bool, fallbackReason) {
	oldN := s.n
	total := frags.Len()
	k := total - oldN
	// Vectorize the suffix into scratch. Resident vectors are not kept:
	// the few this advance compares against are read back from the log.
	var f trace.Fragment
	var rv wvec // a resident vector read back
	sc.vecs = resize(sc.vecs, k)
	bvecs := sc.vecs
	for j := range bvecs {
		s.norms = append(s.norms, bvecs[j].read(frags, oldN+j, opt, &f).Norm())
	}
	norms := s.norms

	batch, inserted, ipos := s.mergeAppended(norms[oldN:], sc)
	order := s.order

	oldNC := len(prev.Clusters)
	t := opt.Threshold
	// Restart cluster: scan limits seedNorm·(1+t) are non-decreasing in
	// cluster index (seeds are taken in norm order; a zero-norm seed's
	// limit is 0 but its norm is minimal too), so the clusters that can
	// reach the smallest appended norm form a suffix. Everything before
	// it is an untouched prefix: those scans break before any insertion
	// and their membership cannot change.
	nb0 := norms[batch[0]]
	r0 := sort.Search(oldNC, func(i int) bool {
		sn := prev.Clusters[i].SeedNorm
		limit := sn * (1 + t)
		if sn == 0 {
			limit = 0
		}
		return limit >= nb0
	})

	maxSpan := int(opt.MaxDirtyRatio * float64(total))
	work := 0
	sc.absorbed, sc.jOf = resize(sc.absorbed, k), resize(sc.jOf, k)
	absorbed := sc.absorbed // by batch position j
	jOf := sc.jOf           // fragment id - oldN -> batch position
	clear(absorbed)
	for j, fi := range batch {
		jOf[int(fi)-oldN] = int32(j)
	}
	var midClusters []Cluster
	var midSeedPos []int32 // merged seed positions of the mid clusters
	var dirty []DirtyRun
	// added backs every Added list of the advance; only appended
	// fragments join a cluster here, so it never outgrows k.
	added := make([]int32, 0, k)
	c := r0     // next old cluster to process
	insJ := 0   // next pending insertion, in batch (= position) order
	insPtr := 0 // #insertion points at old positions <= seedPos[c]
	tailOld := oldNC
	for {
		for insJ < k && absorbed[insJ] {
			insJ++
		}
		if insJ >= k {
			// All insertions placed: the remaining old clusters see the
			// same unprocessed residents and already-processed
			// insertions, so they reproduce verbatim as the tail.
			tailOld = c
			break
		}
		if work > maxSpan {
			return Result{}, Delta{}, false, fbDirty
		}
		insPos := int(inserted[insJ])
		nb := norms[batch[insJ]]
		if c < oldNC {
			for insPtr < k && int(ipos[insPtr]) <= int(s.seedPos[c]) {
				insPtr++
			}
			mseed := int(s.seedPos[c]) + insPtr // merged seed position
			if mseed < insPos {
				oc := prev.Clusters[c]
				sn := oc.SeedNorm
				limit := sn * (1 + t)
				maxDist := sn * t
				if sn == 0 {
					limit, maxDist = 0, 0
				}
				if limit < nb {
					// Band cannot reach any pending insertion (they only
					// get larger): carried over verbatim, O(1).
					midClusters = append(midClusters, oc)
					midSeedPos = append(midSeedPos, int32(mseed))
					dirty = append(dirty, DirtyRun{OldIndex: c})
					c++
					continue
				}
				// The cluster's scan reaches into the appended batch:
				// test every pending insertion inside the band against
				// the seed vector. Residents are not re-scanned — their
				// absorb decisions are unchanged.
				maxDistSq := maxDist * maxDist
				sv := rv.read(frags, oc.Seed, opt, &f)
				from := len(added)
				for j := insJ; j < k && norms[batch[j]] <= limit; j++ {
					if absorbed[j] {
						continue
					}
					work++
					if distSq(bvecs[int(batch[j])-oldN].vec(), sv) <= maxDistSq {
						absorbed[j] = true
						added = append(added, batch[j])
					}
				}
				if len(added) == from {
					midClusters = append(midClusters, oc)
					midSeedPos = append(midSeedPos, int32(mseed))
					dirty = append(dirty, DirtyRun{OldIndex: c})
					c++
					continue
				}
				size := oc.Size + len(added) - from
				midClusters = append(midClusters, Cluster{
					Size:     size,
					Seed:     oc.Seed,
					SeedNorm: oc.SeedNorm,
					Fixed:    size >= opt.MinFragments,
				})
				midSeedPos = append(midSeedPos, int32(mseed))
				dirty = append(dirty, DirtyRun{OldIndex: c, Added: added[from:len(added):len(added)]})
				c++
				continue
			}
		}
		// The insertion precedes every remaining seed: it seeds a new
		// cluster, scanning the merged band forward exactly like Run.
		seedF := int(batch[insJ])
		sn := nb
		limit := sn * (1 + t)
		maxDist := sn * t
		if sn == 0 {
			limit, maxDist = 0, 0
		}
		maxDistSq := maxDist * maxDist
		sv := bvecs[seedF-oldN].vec()
		absorbed[insJ] = true
		from := len(added)
		added = append(added, batch[insJ])
		e := insPos + 1 + sort.Search(total-insPos-1, func(i int) bool {
			return norms[order[insPos+1+i]] > limit
		})
		for p := insPos + 1; p < e; p++ {
			work++
			fi := int(order[p])
			if fi >= oldN {
				j := int(jOf[fi-oldN])
				if !absorbed[j] && distSq(bvecs[fi-oldN].vec(), sv) <= maxDistSq {
					absorbed[j] = true
					added = append(added, order[p])
				}
				continue
			}
			if int(prev.Assign[fi]) >= c && distSq(rv.read(frags, fi, opt, &f), sv) <= maxDistSq {
				// The new cluster steals a resident fragment from a
				// later cluster: the partition restructures and the
				// delta machinery cannot express it.
				return Result{}, Delta{}, false, fbMultiD
			}
		}
		if work > maxSpan {
			return Result{}, Delta{}, false, fbDirty
		}
		size := len(added) - from
		midClusters = append(midClusters, Cluster{
			Size:     size,
			Seed:     seedF,
			SeedNorm: sn,
			Fixed:    size >= opt.MinFragments,
		})
		midSeedPos = append(midSeedPos, int32(insPos))
		dirty = append(dirty, DirtyRun{OldIndex: -1, Added: added[from:len(added):len(added)]})
	}

	// Assemble the Result: untouched prefix, mid clusters, verbatim tail.
	tailNew := r0 + len(midClusters)
	shift := tailNew - tailOld
	nc := tailNew + (oldNC - tailOld)
	clusters := make([]Cluster, 0, nc)
	clusters = append(clusters, prev.Clusters[:r0]...)
	clusters = append(clusters, midClusters...)
	clusters = append(clusters, prev.Clusters[tailOld:]...)
	small := prev.Small
	for i := r0; i < tailOld; i++ {
		if !prev.Clusters[i].Fixed {
			small--
		}
	}
	for i := range midClusters {
		if !midClusters[i].Fixed {
			small++
		}
	}

	assign := s.commitAssign(prev, dirty, r0, tailOld, shift, k)
	res := Result{Clusters: clusters, Assign: assign[:total:total], Small: small}

	// Commit the state. Prefix seed positions are unchanged (every
	// insertion's norm exceeds every prefix limit, hence every prefix
	// seed's norm, so insertions land strictly after them); mid seed
	// positions were tracked in merged coordinates; tail seed positions
	// shift by the number of insertion points at or before them.
	newSeedPos := make([]int32, 0, nc)
	newSeedPos = append(newSeedPos, s.seedPos[:r0]...)
	newSeedPos = append(newSeedPos, midSeedPos...)
	ip := 0
	for i := tailOld; i < oldNC; i++ {
		for ip < k && ipos[ip] <= s.seedPos[i] {
			ip++
		}
		newSeedPos = append(newSeedPos, s.seedPos[i]+int32(ip))
	}
	s.seedPos = newSeedPos
	s.n = total

	d := Delta{
		Prefix:  r0,
		TailNew: tailNew,
		TailOld: tailOld,
		Dirty:   dirty,
		Ratio:   float64(work) / float64(total),
	}
	return res, d, true, fbNone
}
