// Incremental clustering: the delta path behind Cache.RunInc.
//
// The online monitor appends small fragment batches to elements that
// already hold large resident populations; re-running Algorithm 1 from
// scratch costs O(total·log total) per tick. The greedy pass has the
// structure a delta needs on either plane: seeds are taken in (norm,
// index) order, a seed's scan runs forward and breaks past its band
// limit SeedNorm·(1+t), and a fragment joins the first seed before it
// whose absorb test it passes. So every member of a cluster lies in its
// seed's band [SeedNorm, SeedNorm·(1+t)], and the previous Result's
// clusters — seeds and seed norms, in seed order, in memory — describe
// the whole partition. The state keeps no sorted order and no norm:
// only the fragment count; the Result holds its label lane. An advance
// sorts only the appended norms and walks them together with the old
// seeds; each appended fragment (a key) meets one of three cases:
//
//   - absorb: the next old seed comes first (a resident wins a norm tie:
//     its index is smaller than every appended one). The old cluster
//     keeps every resident member — the unplaced residents and the test
//     are those of the previous run — and takes the pending keys its
//     absorb test passes. No resident is read but the seed.
//   - new cluster: the key comes first and its band ends before the next
//     old seed, so no resident is a candidate (every unplaced resident
//     lies at or above that seed's norm). It seeds a cluster of appended
//     fragments only, under a free label; the later clusters keep their
//     members and labels and shift one index up, which rewrites no
//     fragment's entry.
//   - re-cut: its band reaches the next old seed, so the cluster it seeds
//     may steal residents (a new minimum below cluster 0 is one case).
//     Only here are the labels read: one sequential scan gathers the members
//     of a window of old clusters, their norms are read back from the
//     log and sorted by (norm, index), and the greedy re-runs over them
//     and the pending keys until the residents it has placed are exactly
//     the members of the old clusters before an old seed — from there
//     the old partition reproduces. A band that reaches past the window,
//     or an old seed past it that precedes every unplaced fragment,
//     widens it (doubling) with another scan. The old clusters the
//     re-cut dissolved retire their labels; the clusters it formed are
//     born under free labels, and every member of theirs is relabelled.
//
// The absorb test is the one thing the planes do not share. On the
// dominant 1-D TOT_INS plane it is monotone in the candidate's norm:
// clusters are disjoint norm bands, a take stops at the first candidate
// that fails, and a re-cut's windows concatenate. On the multi-D plane
// (UseExtraMetrics, comm/IO vertices) it is the squared distance to the
// seed's vector: a take skips a candidate that fails and goes on to the
// band limit, bands overlap, and a widened window merges into the
// re-cut's order. The appended vectors are built in scratch; the
// resident ones a take needs (an old seed that reaches a key, a re-cut's
// candidates) are read back from the log's lanes.
//
// So a steady advance, whose fragments repeat the element's workloads,
// costs the sort of its own batch plus one step per cluster it passes
// and reads no label: a key that repeats a resident's vector passes
// the test of that resident's seed. The one fallback is a change of
// vector shape: a 1-D element that sees a comm/IO fragment is
// re-clustered once from scratch and recaptured multi-D.
//
// Identity with Run is non-negotiable — an advanced Result has Run's
// Clusters and Small, and every fragment's ClusterOf is Run's, on the
// same log (the equivalence fuzzes pin it; the labels may differ) —
// which dictates two details: the walk must follow the exact
// stable order Run produces — ties broken by ascending fragment index,
// so on a tie a resident goes before every appended fragment — and the
// absorb test must be the exact float expressions Run evaluates: the
// break norms[cand] > seedNorm*(1+Threshold), then norms[cand]-norms[seed]
// <= seedNorm*Threshold in 1-D (the two round differently, and Run
// applies both) or distSq(cand, seed) <= (seedNorm*Threshold)² in
// multi-D. A Cluster lists no members — membership is the label lane —
// so an advance hands consumers what changed in its Delta, by label:
// the labels retired, the clusters born (Added: the whole membership)
// and the clusters grown (Added: the appended members), the lists owned
// by the Delta. No surviving cluster's label moves, so a consumer that
// keys its state by label never remaps it.
package cluster

import (
	"math"
	"sort"

	"vapro/internal/stg"
	"vapro/internal/trace"
)

// LabelRun is one cluster of a Delta, by label, and the fragments it
// gained. The Delta owns the Added lists; nothing the cluster state
// keeps aliases them. Their order is unspecified.
type LabelRun struct {
	Label int
	Added []int32
}

// Delta tells a consumer how a Result evolved from the Result of the
// previous generation, so derived state (normalized series, span
// indexes) can be patched instead of rebuilt. It speaks in labels: a
// cluster keeps its label while it lives, so only the clusters listed
// here changed, whatever their indexes did.
type Delta struct {
	// From is the generation the delta advances from; a consumer whose
	// derived state is pinned to a different generation must rebuild.
	From stg.Gen
	// Full marks a batch recompute: no structural relationship to the
	// previous Result is known.
	Full bool
	// Retired lists the labels of the previous Result's clusters that
	// dissolved: their members are in Born clusters now, and no entry of
	// the new Result holds them.
	Retired []int
	// Born lists the clusters the advance formed, each under a label no
	// cluster of the previous Result held or one Retired lists; Added is
	// the whole membership.
	Born []LabelRun
	// Grown lists the surviving clusters that gained members; Added is
	// the appended fragments each absorbed.
	Grown []LabelRun
	// Ratio is the share of the population the advance examined: its
	// appended fragments and the residents it re-read or re-scanned.
	Ratio float64
}

// incState is the persistent per-element state behind the incremental
// path: the fragment count and the plane. The previous Result's seeds
// are the partition and its labels the membership. Guarded by the
// owning cache entry's mutex.
type incState struct {
	// multiD marks an element on the vector path: its absorb test is a
	// squared distance to the seed's workload vector.
	multiD bool
	// dead marks a state that cannot advance any more (the element
	// changed vector shape); the next advance falls back and recaptures.
	dead bool
	// n is the fragment count the state describes.
	n int
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

// norm inverts radixNorm for a non-negative norm, which every norm is
// (a TOT_INS count, or a Euclidean norm): the key carries the norm's
// bits exactly.
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

// precedes reports whether k comes before fragment seed, of norm sn, in
// Run's (norm, index) order.
func (k normKey) precedes(sn float64, seed int) bool {
	x := k.norm()
	return x < sn || x == sn && int(k.idx) < seed
}

// mergeKeys merges two lists ordered by (norm, index) into one.
func mergeKeys(a, b []normKey) []normKey {
	if len(a) == 0 {
		return b
	}
	out := make([]normKey, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].precedes(a[0].norm(), int(a[0].idx)) {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// update advances the state with the appended suffix frags[s.n:] and
// returns the new Result plus its Delta (Delta.From is filled by the
// caller) and the number of re-cuts the advance made. ok=false means
// the element changed vector shape — a 1-D state saw a non-computation
// arrival — and the caller must re-cluster from scratch and recapture.
func (s *incState) update(frags trace.LogView, prev Result, opt Options) (res Result, d Delta, recuts int, ok bool) {
	total := frags.Len()
	k := total - s.n
	if s.dead || k <= 0 {
		return Result{}, Delta{}, 0, false
	}
	if !s.multiD && !frags.AllKind(s.n, trace.Comp) {
		// The element left the 1-D domain; the cached state has no
		// vectors, so fall back once and recapture as multi-D.
		s.dead = true
		return Result{}, Delta{}, 0, false
	}
	sc := advancePool.Get().(*scratch)
	defer advancePool.Put(sc)
	w := bandWalk{
		old:   prev.Clusters,
		prev:  prev,
		mids:  sc.mids[:0],
		added: make([]int32, 0, k),
		work:  k,
		frags: frags,
		opt:   opt,
		n:     s.n,
		chunk: -1,
	}
	sc.norms = resize(sc.norms, k)
	if s.multiD {
		sc.vecs = resize(sc.vecs, k)
		w.vecs = sc.vecs
		for j := range w.vecs {
			sc.norms[j] = w.vecs[j].read(frags, s.n+j, opt, &w.f).Norm()
		}
	} else {
		trace.ReadColumn(frags, trace.ColTotIns, s.n, sc.norms)
	}
	w.keys = sortNormKeys(&sc.keys, sc.norms, int32(s.n))
	oldNC := len(w.old)
	// Band limits ascend with the seeds, so the old clusters whose band
	// ends below the smallest appended norm are a prefix: they take no
	// key, and no key comes before them to take their members.
	x0 := w.keys[0].norm()
	r0 := sort.Search(oldNC, func(i int) bool { return bandOf(w.old[i].SeedNorm, w.opt.Threshold).limit >= x0 })
	w.c = r0
	for len(w.keys) > 0 {
		key := w.keys[0]
		x := key.norm()
		switch {
		case w.c < oldNC && w.old[w.c].SeedNorm <= x:
			// Absorb: old cluster c seeds next and keeps its members; it
			// takes the keys its test passes — none when they lie past
			// its band.
			oc := w.old[w.c]
			from := len(w.added)
			w.keys = w.take(w.keys, oc.SeedNorm, int32(oc.Seed))
			oc.Size += len(w.added) - from
			w.emit(oc, w.c, from)
			w.c++
		case w.c < oldNC && w.old[w.c].SeedNorm <= bandOf(x, w.opt.Threshold).limit:
			w.recut()
			recuts++
		default:
			// New cluster: the key seeds in a gap, and its band ends
			// before the next old seed.
			from := len(w.added)
			w.keys = w.take(w.keys, x, key.idx)
			w.emit(Cluster{Size: len(w.added) - from, Seed: int(key.idx), SeedNorm: x}, -1, from)
		}
	}
	sc.mids = w.mids

	// The last middle cluster placed the last key; every old cluster
	// from c on is the verbatim tail.
	mids, tailOld := w.mids, w.c
	shift := r0 + len(mids) - tailOld
	clusters := make([]Cluster, 0, oldNC+shift)
	clusters = append(clusters, w.old[:r0]...)
	for _, m := range mids {
		clusters = append(clusters, m.c)
	}
	clusters = append(clusters, w.old[tailOld:]...)
	small := 0
	for _, c := range clusters {
		if !c.Fixed {
			small++
		}
	}

	// The labels: a surviving cluster keeps its own under its new index,
	// a dissolved one's is retired, and each cluster the advance formed
	// takes the smallest free label — one retired just now included.
	// When every cluster kept its index, the previous Result's table
	// serves. Only the Added lists are written.
	labelOf := resize(sc.order, oldNC) // by old index
	for l, ci := range prev.index {
		if ci >= 0 {
			labelOf[ci] = int32(l)
		}
	}
	sc.order = labelOf
	index, moved := prev.index, shift != 0
	for i, m := range mids {
		moved = moved || int(m.old) != r0+i
	}
	if moved {
		index = make([]int32, len(prev.index))
		for l := range index {
			index[l] = -1
		}
		for ci, l := range labelOf[:r0] {
			index[l] = int32(ci)
		}
		for ci := tailOld; ci < oldNC; ci++ {
			index[labelOf[ci]] = int32(ci + shift)
		}
		for i, m := range mids {
			if m.old >= 0 {
				index[labelOf[m.old]] = int32(r0 + i)
			}
		}
		for _, l := range labelOf[r0:tailOld] {
			if index[l] < 0 {
				d.Retired = append(d.Retired, int(l))
			}
		}
	}
	runs := make([]LabelRun, 0, len(mids)) // Grown, then Born
	for _, m := range mids {
		if m.old >= 0 && m.to > m.from {
			runs = append(runs, LabelRun{Label: int(labelOf[m.old]), Added: w.added[m.from:m.to:m.to]})
		}
	}
	d.Grown = runs[:len(runs):len(runs)]
	free := 0
	for i, m := range mids {
		if m.old >= 0 {
			continue
		}
		for free < len(index) && index[free] >= 0 {
			free++
		}
		if free == len(index) {
			index = append(index, -1)
		}
		index[free] = int32(r0 + i)
		runs = append(runs, LabelRun{Label: free, Added: w.added[m.from:m.to:m.to]})
	}
	d.Born = runs[len(d.Grown):]
	lane := laneWriter{l: prev.assign, shared: s.n}
	lane.grow(total)
	for _, r := range runs {
		for _, m := range r.Added {
			lane.set(int(m), r.Label)
		}
	}
	s.n = total
	d.Ratio = float64(w.work) / float64(total)
	return Result{Clusters: clusters, Small: small, assign: lane.l, index: index}, d, recuts, true
}

// band is a seed's reach: Run's break limit and absorb distance.
type band struct{ sn, limit, maxDist float64 }

func bandOf(sn, t float64) band {
	if sn == 0 {
		// Zero-norm seeds (e.g. zero-byte ops) absorb only other zeros.
		return band{}
	}
	return band{sn, sn * (1 + t), sn * t}
}

// takes reports whether the band's seed absorbs a 1-D candidate of norm
// x >= sn: Run's break test, then its absorb test.
func (b band) takes(x float64) bool { return x <= b.limit && x-b.sn <= b.maxDist }

// midRun is one cluster of an advance's middle region: the new cluster,
// the old one it extends (-1: rebuilt), and its Added list,
// added[from:to].
type midRun struct {
	c        Cluster
	old      int32
	from, to int32
}

// bandWalk is one advance in progress: the appended keys walked together
// with the old clusters' seeds. Every resident member of an old cluster
// before c is placed, and every key no longer in keys; nothing else is.
type bandWalk struct {
	old   []Cluster
	prev  Result    // the previous Result: old's labels
	keys  []normKey // the unplaced appended fragments, by (norm, index)
	c     int
	mids  []midRun
	added []int32 // backs every Added list; owned by the Delta
	work  int     // fragments placed: the keys plus re-cut residents

	// Where the walk reads: the log and the fragments appended after its
	// first n rows. vecs holds a multi-D batch's vectors (nil in 1-D);
	// f, sv and cv are a read-back's buffers, lane a 1-D re-cut's cached
	// TOT_INS lane of chunk.
	frags trace.LogView
	opt   Options
	n     int
	vecs  []wvec
	f     trace.Fragment
	sv    wvec
	cv    wvec
	lane  trace.Lane
	chunk int
}

// emit appends a middle cluster whose Added list is added[from:].
func (w *bandWalk) emit(c Cluster, old, from int) {
	c.Fixed = c.Size >= w.opt.MinFragments
	w.mids = append(w.mids, midRun{c: c, old: int32(old), from: int32(from), to: int32(len(w.added))})
}

// take appends to added every fragment of list — unplaced, ordered by
// (norm, index), none before the seed — that the seed of norm sn
// absorbs, and returns the rest of list in order. In 1-D the test is
// monotone in the norm, so the fragments taken are a prefix and the
// take stops at the first that fails; in multi-D a fragment that fails
// stays where it is and the take goes on to the band's limit.
func (w *bandWalk) take(list []normKey, sn float64, seed int32) []normKey {
	b := bandOf(sn, w.opt.Threshold)
	if w.vecs == nil {
		i := 0
		for ; i < len(list) && b.takes(list[i].norm()); i++ {
			w.added = append(w.added, list[i].idx)
		}
		return list[i:]
	}
	end := 0
	for end < len(list) && list[end].norm() <= b.limit {
		end++
	}
	if end == 0 {
		return list
	}
	sv := w.vector(seed, &w.sv)
	maxDistSq := b.maxDist * b.maxDist
	kept := end // the failed fragments close up to end, in order
	for i := end - 1; i >= 0; i-- {
		if distSq(w.vector(list[i].idx, &w.cv), sv) <= maxDistSq {
			w.added = append(w.added, list[i].idx)
		} else {
			kept--
			list[kept] = list[i]
		}
	}
	return list[kept:]
}

// vector returns fragment i's workload vector: an appended fragment's
// from the batch, a resident's read back from the log into buf.
func (w *bandWalk) vector(i int32, buf *wvec) Vector {
	if j := int(i) - w.n; j >= 0 {
		return w.vecs[j].vec()
	}
	return buf.read(w.frags, int(i), w.opt, &w.f)
}

// residentNorm returns resident i's norm, read back from the log: its
// vector's in multi-D, its TOT_INS lane's in 1-D.
func (w *bandWalk) residentNorm(i int) float64 {
	if w.vecs != nil {
		return w.cv.read(w.frags, i, w.opt, &w.f).Norm()
	}
	if c := i / trace.LogChunkRows; c != w.chunk {
		w.chunk, w.lane = c, w.frags.Lane(trace.ColTotIns, c)
	}
	return float64(w.lane.At(i % trace.LogChunkRows))
}

// recut places the keys from the first unplaced one on, whose band
// reaches old cluster c's seed, by re-running the greedy over the
// resident members of the old clusters from c on together with the
// pending keys, until the residents it has placed are exactly the
// members of the old clusters before an old seed; the walk resumes at
// that seed. The residents are gathered a window of old clusters at a
// time, each window by one scan of the old labels, their norms read
// back and sorted by (norm, index). A seed whose band reaches the first
// seed past the window widens it, and so does that seed when it precedes
// every unplaced fragment (only multi-D bands overlap so): nothing past
// the window is a candidate otherwise. Every cluster the re-cut forms is
// rebuilt: its Added list is its whole membership. The gathered
// residents are the re-cut's own garbage, not pooled scratch: a pool
// would keep the largest window ever gathered resident beside every
// element.
func (w *bandWalk) recut() {
	lo := w.c
	e := lo            // the window is old clusters [lo, e)
	var res []normKey  // the window's unplaced residents, by (norm, index)
	var placedOf []int // by window cluster: its residents placed
	gather := func() {
		hi := min(len(w.old), e+max(1, e-lo))
		need := 0
		for i := e; i < hi; i++ {
			need += w.old[i].Size
		}
		fresh := make([]normKey, 0, need)
		span := uint32(hi - e)
		for c := 0; c*laneRows < w.n; c++ {
			lc := w.prev.LabelChunk(c)
			for r := range min(laneRows, w.n-c*laneRows) {
				if uint32(w.prev.index[lc.At(r)])-uint32(e) < span {
					i := c*laneRows + r
					fresh = append(fresh, normKey{radixNorm(w.residentNorm(i)), int32(i)})
				}
			}
		}
		res = mergeKeys(res, radixSort(fresh, make([]normKey, need)))
		placedOf = append(placedOf, make([]int, hi-e)...)
		w.work += need
		e = hi
	}
	gather()
	placed, below, m := 0, 0, lo // below: the members of old clusters [lo, m), all placed
	for {
		// The next seed: the first unplaced resident or key, the resident
		// on a tie. Until the walk re-aligns, an unplaced resident remains.
		seed := res[0]
		if len(w.keys) > 0 && w.keys[0].norm() < seed.norm() {
			seed = w.keys[0]
		}
		if e < len(w.old) && !seed.precedes(w.old[e].SeedNorm, w.old[e].Seed) {
			gather()
			continue
		}
		x := seed.norm()
		for limit := bandOf(x, w.opt.Threshold).limit; e < len(w.old) && w.old[e].SeedNorm <= limit; {
			gather()
		}
		from := len(w.added)
		res = w.take(res, x, seed.idx)
		for _, i := range w.added[from:] {
			placedOf[w.prev.ClusterOf(int(i))-lo]++
		}
		placed += len(w.added) - from
		w.keys = w.take(w.keys, x, seed.idx)
		w.emit(Cluster{Size: len(w.added) - from, Seed: int(seed.idx), SeedNorm: x}, -1, from)
		for m < e && placedOf[m-lo] == w.old[m].Size {
			below += w.old[m].Size
			m++
		}
		if placed == below {
			// The placed residents are old clusters [lo, m): the cut lines
			// up with old seed m (or m is the window's end, every gathered
			// resident placed).
			w.c = m
			return
		}
	}
}
