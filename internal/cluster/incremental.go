// Incremental clustering: the delta path behind Cache.RunInc.
//
// The online monitor appends small fragment batches to elements that
// already hold large resident populations; re-running Algorithm 1 from
// scratch costs O(total·log total) per tick. For the dominant 1-D
// TOT_INS population the greedy cut has a structural property that
// makes a delta cheap: the absorb test is monotone in the candidate's
// norm, so every cluster is a NORM BAND. Cluster i holds exactly the
// fragments whose norm lies in [SeedNorm_i, SeedNorm_i+1), every one of
// them passes the absorb test against SeedNorm_i, and SeedNorm_i+1
// fails it. The previous Result's seed norms — in memory, ascending —
// therefore describe the whole partition, and the 1-D state keeps no
// sorted order at all. An advance sorts only the appended norms and
// walks them together with the seed norms. The greedy pass over the
// merged population picks the smallest unplaced norm as the next seed,
// and each appended fragment meets one of three cases:
//
//   - absorb: the last old seed at or below it is the next seed, and its
//     band takes the fragment. The old cluster keeps every resident
//     member (their norms still pass the same test) and gains the
//     fragment; no resident norm is read.
//   - new cluster: the fragment falls in a gap between one band's end
//     and the next seed, and its own band does not reach that seed. It
//     seeds a cluster of appended fragments only; the later clusters
//     keep their members and shift one index up.
//   - re-cut: its band reaches the next old seed, so the cluster it
//     seeds steals resident members (a new minimum below cluster 0 is
//     one case). Only here are residents read: one sequential scan of
//     the old Assign gathers the members of a window of old clusters,
//     their norms are read back from the log and sorted by (norm,
//     index), and the greedy re-runs over them and the remaining
//     appended norms until a cut lines up with an old seed — from a
//     boundary at an old seed the old partition reproduces. A band
//     that reaches past the window widens it (doubling) with another
//     scan. The rebuilt clusters are rebuilt runs (OldIndex -1).
//
// So a steady advance, whose fragments repeat the element's workloads,
// costs the sort of its own batch plus one step per cluster it passes.
//
// Multi-dimensional elements (UseExtraMetrics, comm/IO vertices) have
// no band guarantee, but the greedy pass still has the structure
// a delta needs: seeds are taken in norm order, scans only run forward,
// and a seed's reach is bounded by its norm band [seed, seed·(1+t)].
// So an appended fragment with norm nb can only be absorbed by a
// cluster whose band limit reaches nb — every cluster with a smaller
// limit reproduces verbatim — and a cluster that does reach it absorbs
// it iff the full squared-distance test passes, without re-scanning the
// cluster's resident members at all (old-vs-old absorb decisions cannot
// change when the only new candidates are the insertions). The multi-D
// state caches norms and the norm-sorted order, so an advance re-sorts
// nothing resident; the few resident vectors it needs (a reaching
// cluster's seed, a candidate a new seed might steal) are read back
// from the log's lanes. The one case it cannot patch is an insertion
// that seeds a NEW cluster and steals a resident fragment from a later
// cluster — that restructures the partition and falls back to the
// batch path (Cache.IncStats counts it).
//
// Bit-identity with Run is non-negotiable — an advanced Result is
// reflect.DeepEqual to Run's on the same log (the equivalence fuzz pins
// it) — which dictates two details: the merged order must be the exact
// stable order Run produces — ties broken by ascending fragment index,
// so on a tie a resident goes before every appended fragment — and the
// absorb test must be the exact float expressions Run evaluates: the
// break norms[cand] > seedNorm*(1+Threshold) and the test
// norms[cand]-norms[seed] <= seedNorm*Threshold in 1-D (the two round
// differently, and Run applies both), distSq(cand, seed) <=
// (seedNorm*Threshold)² in multi-D. A Cluster lists no members —
// membership is Assign — so an advance hands the fragments that moved
// to consumers in its Delta: each dirty run's Added, owned by the Delta.
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
	// Ratio is the share of the population the advance examined: its
	// appended fragments and the residents it re-read or re-scanned.
	Ratio float64
}

// unchangedDelta builds the delta of a cache hit: nothing recomputed.
func unchangedDelta(from stg.Gen, nClusters int) Delta {
	return Delta{From: from, Prefix: nClusters, TailNew: nClusters, TailOld: nClusters}
}

// incState is the persistent per-element state behind the incremental
// path. A 1-D state is the fragment count and the Assign backing: the
// previous Result's seed norms describe the partition. A multi-D state
// adds the norm-sorted order (4 bytes a fragment), the norms (8) and
// the seed positions. The Assign backing is shared with the Results.
// Guarded by the owning cache entry's mutex.
type incState struct {
	// multiD marks an element on the vector path: clusters are tracked
	// by seed position in the sorted order instead of norm bands.
	multiD bool
	// dead marks a state that cannot advance any more (the element
	// changed vector shape); the next advance falls back and recaptures.
	dead bool
	// n is the fragment count the state describes.
	n int
	// Multi-D only: the norms, the stable norm-sorted fragment order
	// (Run's line 2), and seedPos[i], the position in order of cluster
	// i's seed. Seeds are taken in position order, so it is ascending.
	norms   []float64
	order   []int32
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

// mergeAppended orders the appended fragments [s.n, len(s.norms)) by
// (norm, index) and merges them into s.order, preserving Run's exact
// stable order (on a norm tie the resident fragment goes first — its
// index is smaller than every appended index). It returns the sorted
// new fragment ids, their final merged positions (ascending), and their
// insertion points among the old order (ascending), all three in sc.
func (s *incState) mergeAppended(sc *scratch) (batch, inserted, ipos []int32) {
	norms := s.norms
	bnorms := norms[s.n:]
	k := len(bnorms)
	keys := sortNormKeys(&sc.keys, bnorms, int32(s.n))

	// One galloping merge finds every insertion point among the old
	// elements: the batch is ascending, so each search resumes where the
	// previous one ended and doubles its stride until it overshoots — the
	// probes stay near the last insertion instead of re-bisecting the
	// whole resident order k times. The first stride is the gap the
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
		for hi < s.n && norms[order[hi]] <= norm {
			lo, hi, step = hi+1, hi+step, step<<1
		}
		for hi = min(hi, s.n); lo < hi; {
			if mid := int(uint(lo+hi) >> 1); norms[order[mid]] <= norm {
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

// normKey is a fragment's sort key: the radix image of its norm and its
// fragment index.
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

// norm inverts radixNorm for a non-negative norm, which every 1-D norm
// (a TOT_INS count) is: the key carries the norm's bits exactly.
func (k normKey) norm() float64 { return math.Float64frombits(k.key &^ (1 << 63)) }

// sortNormKeys returns the keys of norms — fragment indexes base,
// base+1, … — ordered by (norm, index) under cmp.Compare. *buf is the
// sort's scratch, grown as needed; the result aliases it.
func sortNormKeys(buf *[]normKey, norms []float64, base int32) []normKey {
	k := len(norms)
	*buf = resize(*buf, 2*k)
	keys := (*buf)[:k]
	for i, x := range norms {
		keys[i] = normKey{radixNorm(x), base + int32(i)}
	}
	return radixSort(keys, (*buf)[k:])
}

// radixSort orders keys by their radix key, stably, by an LSD radix sort:
// one 8-bit digit per pass, skipping every pass whose digit is the same
// in all keys. Keys that start in index order end in (norm, index)
// order. tmp is scratch at least as long as keys; the result is keys or
// tmp, whichever the last pass wrote.
func radixSort(keys, tmp []normKey) []normKey {
	k := len(keys)
	tmp = tmp[:k]
	var count [8][256]int32
	for _, key := range keys {
		for p := range count {
			count[p][byte(key.key>>(8*p))]++
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
// caller) and the number of 1-D re-cuts the advance made. ok=false
// means the state cannot advance incrementally — the element changed
// vector shape (a 1-D state saw a non-computation arrival, forcing a
// multi-D recapture), or on the multi-D path an appended fragment
// seeded a new cluster that steals resident members — and the caller
// must re-cluster from scratch; the state is then stale and must be
// recaptured.
func (s *incState) update(frags trace.LogView, prev Result, opt Options) (res Result, d Delta, recuts int, ok bool) {
	k := frags.Len() - s.n
	if s.dead || k <= 0 {
		return Result{}, Delta{}, 0, false
	}
	sc := advancePool.Get().(*scratch)
	defer advancePool.Put(sc)
	if s.multiD {
		res, d, ok = s.updateMultiD(frags, prev, opt, sc)
		return res, d, 0, ok
	}
	if !frags.AllKind(s.n, trace.Comp) {
		// The element left the 1-D domain; the cached state has no
		// vectors, so fall back once and recapture as multi-D.
		s.dead = true
		return Result{}, Delta{}, 0, false
	}
	res, d, recuts = s.update1D(frags, prev, opt, sc)
	return res, d, recuts, true
}

// band is a 1-D seed's reach: Run's break limit and absorb distance.
type band struct{ sn, limit, maxDist float64 }

func bandOf(sn, t float64) band {
	if sn == 0 {
		// Zero-norm seeds (e.g. zero-byte ops) absorb only other zeros.
		return band{}
	}
	return band{sn, sn * (1 + t), sn * t}
}

// takes reports whether the band's seed absorbs a candidate of norm
// x >= sn: Run's break test, then its absorb test.
func (b band) takes(x float64) bool { return x <= b.limit && x-b.sn <= b.maxDist }

// midRun is one cluster of a 1-D advance's middle region: the new
// cluster, the old one it extends (-1: rebuilt), and its Added list,
// added[from:to].
type midRun struct {
	c        Cluster
	old      int32
	from, to int32
}

// bandWalk is one 1-D advance in progress: the appended keys walked
// together with the old clusters' seed norms. Every appended fragment
// before key j and every resident member of an old cluster before c is
// placed; nothing after them is.
type bandWalk struct {
	t        float64
	minFrags int
	old      []Cluster
	keys     []normKey
	j, c     int
	mids     []midRun
	added    []int32 // backs every Added list; owned by the Delta
	work     int     // fragments placed: the keys plus re-cut residents
}

// emit appends a middle cluster whose Added list is added[from:].
func (w *bandWalk) emit(c Cluster, old, from int) {
	c.Fixed = c.Size >= w.minFrags
	w.mids = append(w.mids, midRun{c: c, old: int32(old), from: int32(from), to: int32(len(w.added))})
}

// take appends to added every key from j on that b absorbs, and
// returns how many it took.
func (w *bandWalk) take(b band) int {
	from := len(w.added)
	for ; w.j < len(w.keys) && b.takes(w.keys[w.j].norm()); w.j++ {
		w.added = append(w.added, w.keys[w.j].idx)
	}
	return len(w.added) - from
}

// update1D advances a 1-D state: the band walk of the package comment.
func (s *incState) update1D(frags trace.LogView, prev Result, opt Options, sc *scratch) (Result, Delta, int) {
	total := frags.Len()
	k := total - s.n
	sc.norms = resize(sc.norms, k)
	trace.ReadColumn(frags, trace.ColTotIns, s.n, sc.norms)
	w := bandWalk{
		t:        opt.Threshold,
		minFrags: opt.MinFragments,
		old:      prev.Clusters,
		keys:     sortNormKeys(&sc.keys, sc.norms, int32(s.n)),
		mids:     sc.mids[:0],
		added:    make([]int32, 0, k),
		work:     k,
	}
	oldNC := len(w.old)
	// Every cluster before the last one seeded at or below the smallest
	// appended norm ends below it: an untouched prefix.
	x0 := w.keys[0].norm()
	r0 := max(sort.Search(oldNC, func(i int) bool { return w.old[i].SeedNorm > x0 })-1, 0)
	w.c = r0
	recuts := 0
	for w.j < k {
		key := w.keys[w.j]
		x := key.norm()
		switch {
		case w.c < oldNC && w.old[w.c].SeedNorm <= x:
			// Absorb: old cluster c seeds next (a resident wins a norm
			// tie) and keeps its members; it takes the keys its band
			// reaches — none when the key lies past the band.
			oc := w.old[w.c]
			from := len(w.added)
			oc.Size += w.take(bandOf(oc.SeedNorm, w.t))
			w.emit(oc, w.c, from)
			w.c++
		case w.c < oldNC && bandOf(x, w.t).takes(w.old[w.c].SeedNorm):
			w.recut(frags, prev.Assign)
			recuts++
		default:
			// New cluster: the key seeds in a gap, and its band ends
			// before the next old seed.
			from := len(w.added)
			size := w.take(bandOf(x, w.t))
			w.emit(Cluster{Size: size, Seed: int(key.idx), SeedNorm: x}, -1, from)
		}
	}
	sc.mids = w.mids

	// The last middle cluster placed the last key; every old cluster
	// from c on is the verbatim tail.
	mids, tailOld := w.mids, w.c
	tailNew := r0 + len(mids)
	clusters := make([]Cluster, 0, tailNew+oldNC-tailOld)
	clusters = append(clusters, w.old[:r0]...)
	dirty := make([]DirtyRun, len(mids))
	small := prev.Small
	for i := r0; i < tailOld; i++ {
		if !w.old[i].Fixed {
			small--
		}
	}
	for i, m := range mids {
		clusters = append(clusters, m.c)
		dirty[i] = DirtyRun{OldIndex: int(m.old), Added: w.added[m.from:m.to:m.to]}
		if !m.c.Fixed {
			small++
		}
	}
	clusters = append(clusters, w.old[tailOld:]...)

	assign := s.commitAssign(prev, dirty, r0, tailOld, tailNew-tailOld, k)
	s.n = total
	res := Result{Clusters: clusters, Assign: assign[:total:total], Small: small}
	d := Delta{
		Prefix:  r0,
		TailNew: tailNew,
		TailOld: tailOld,
		Dirty:   dirty,
		Ratio:   float64(w.work) / float64(total),
	}
	return res, d, recuts
}

// recut places the fragments from the walk's key j on, whose band
// reaches old cluster c's seed, by re-running the greedy over the
// resident members of the old clusters from c on together with the
// remaining keys, until a cut lines up with an old seed; the walk
// resumes there. The residents are gathered a window of old clusters at
// a time, each window by one scan of the old Assign, their norms read
// from the log a chunk lane at a time and sorted by (norm, index) —
// clusters are disjoint norm bands, so the windows concatenate in
// order. A seed whose band reaches the first seed past the window
// widens it; nothing past the window can join a band that does not.
// Every cluster the re-cut forms is rebuilt: its Added list is its
// whole membership. The gathered residents are the re-cut's own
// garbage, not pooled scratch: a pool would keep the largest window
// ever gathered resident beside every element.
func (w *bandWalk) recut(frags trace.LogView, assign []int32) {
	lo := w.c
	var res, tmp []normKey // the gathered residents, by (norm, index); the sort's buffer
	e := lo                // the window is old clusters [lo, e)
	gather := func() {
		hi := min(len(w.old), e+max(1, e-lo))
		base, need := len(res), 0
		for i := e; i < hi; i++ {
			need += w.old[i].Size
		}
		res = slices.Grow(res, need)
		var lane trace.Lane
		chunk := -1
		span := uint32(hi - e)
		for i, a := range assign {
			if uint32(a)-uint32(e) >= span {
				continue
			}
			if c := i / trace.LogChunkRows; c != chunk {
				chunk, lane = c, frags.Lane(trace.ColTotIns, c)
			}
			res = append(res, normKey{radixNorm(float64(lane.At(i % trace.LogChunkRows))), int32(i)})
		}
		tmp = resize(tmp, need)
		if sorted := radixSort(res[base:], tmp); &sorted[0] != &res[base] {
			copy(res[base:], sorted)
		}
		w.work += need
		e = hi
	}
	gather()
	p := 0         // residents res[:p] are placed
	m, at := lo, 0 // at is where old cluster m begins in res
	for {
		// The next seed: the smaller of the first unplaced resident and
		// the first unplaced key, the resident on a tie. Until the walk
		// re-aligns, an unplaced resident remains.
		seed := res[p]
		if w.j < len(w.keys) && w.keys[w.j].norm() < seed.norm() {
			seed = w.keys[w.j]
		}
		b := bandOf(seed.norm(), w.t)
		for e < len(w.old) && b.takes(w.old[e].SeedNorm) {
			gather()
		}
		from := len(w.added)
		for ; p < len(res) && b.takes(res[p].norm()); p++ {
			w.added = append(w.added, res[p].idx)
		}
		w.take(b)
		w.emit(Cluster{Size: len(w.added) - from, Seed: int(seed.idx), SeedNorm: seed.norm()}, -1, from)
		for at < p {
			at += w.old[m].Size
			m++
		}
		if at == p {
			// The cut lines up with old cluster m's seed (or every
			// gathered resident is placed and m is the window's end).
			w.c = m
			return
		}
	}
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
// advance falls back.
func (s *incState) updateMultiD(frags trace.LogView, prev Result, opt Options, sc *scratch) (Result, Delta, bool) {
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

	batch, inserted, ipos := s.mergeAppended(sc)
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
				return Result{}, Delta{}, false
			}
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
	return res, d, true
}
