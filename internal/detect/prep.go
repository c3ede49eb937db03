package detect

import (
	"sort"
	"time"

	"vapro/internal/cluster"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// prepElem is the window-independent part of one STG element's analysis,
// memoized per element generation alongside the clustering cache. The
// normalized samples of an element depend only on its full fragment
// population (clustering and the per-cluster fastest member never look
// at the analysis window — the window just filters which samples feed
// the heat map), so they are computed once per element generation and
// every overlapped window slices them by binary search instead of
// re-walking every cluster member.
//
// It has exactly one of two bodies, fixed when it is built. On the
// incremental plane it is the sample store (store.go), advanced in
// place by every append-only generation step the clustering cache
// reports as a structured Delta. Under DisableIncremental it is the
// flat oracle (oracle.go), rebuilt from scratch whenever the element
// moves. A prep is never served or advanced in the mode that did not
// build it.
type prepElem struct {
	gen     stg.Gen
	nfrags  int
	copt    cluster.Options
	ref     ClusterRef
	minFrag int

	fixedClusters int
	smallClusters int

	store *sampleStore
	flat  *flatPrep
}

// clustState tracks what one cluster's emission depends on, so an
// append touching the cluster can be applied as a delta: the fastest
// member (monotone — it only improves) and the per-rank population
// counts (monotone — they only grow, so a rank crosses the coverage
// threshold at most once).
type clustState struct {
	// emitted: the cluster is Fixed with a valid best and its members
	// are samples.
	emitted bool
	best    int64
	ranks   rankTable
	// nStored counts the members the state accounts for, for delta
	// validation.
	nStored int32
}

// observe folds member m into the cluster's state — its rank's count
// and the fastest-member minimum — and returns the rank's slot.
func (st *clustState) observe(frags trace.LogView, m int32) int32 {
	rank, _, elapsed := frags.Span(int(m))
	if elapsed > 0 && elapsed < st.best {
		st.best = elapsed
	}
	return st.ranks.add(rank)
}

// rankTable counts a cluster's members per rank. Slots are handed out
// in first-seen order and never move, so a slot recorded when a member
// was appended answers "is this rank covered" with an array read for
// the cluster's lifetime. Nothing is sized by rank id: stray ids up to
// MaxInt32 are legal input.
type rankTable struct {
	slot map[int]int32
	rank []int
	n    []int32
}

// add counts one more member of rank and returns the rank's slot.
func (t *rankTable) add(rank int) int32 {
	s, ok := t.slot[rank]
	if !ok {
		if t.slot == nil {
			t.slot = make(map[int]int32, 8)
		}
		s = int32(len(t.rank))
		t.slot[rank] = s
		t.rank = append(t.rank, rank)
		t.n = append(t.n, 0)
	}
	t.n[s]++
	return s
}

// countClusters refreshes the fixed/small cluster tallies.
func (p *prepElem) countClusters(cl cluster.Result) {
	p.smallClusters = cl.Small
	p.fixedClusters = len(cl.Clusters) - cl.Small
}

// spanEnt is one span on its way into a spanIndex.
type spanEnt struct {
	start, elapsed int64
	pos            int32 // what the entry names: a sample position or a fragment index
	frag           int32 // the fragment index, the tie key under equal starts
	covered        bool
}

func (a *spanEnt) before(b *spanEnt) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	return a.frag < b.frag
}

// orderSpans orders ents by (start, fragment index) by merging the runs
// that are already in that order. The fragments of one flush arrive
// start-ordered per rank, so an appended suffix is a handful of long
// runs and this costs n·log(runs) typed compares; on arbitrary input it
// degrades to a plain merge sort. The result may alias ents.
func orderSpans(ents []spanEnt) []spanEnt {
	bounds := []int{0}
	for i := 1; i < len(ents); i++ {
		if ents[i].before(&ents[i-1]) {
			bounds = append(bounds, i)
		}
	}
	runs := len(bounds)
	if runs == 1 {
		return ents
	}
	bounds = append(bounds, len(ents))
	src, dst := ents, make([]spanEnt, len(ents))
	for runs > 1 {
		w := 0
		for r := 0; r < runs; r += 2 {
			lo, mid, hi := bounds[r], bounds[min(r+1, runs)], bounds[min(r+2, runs)]
			i, j, o := lo, mid, lo
			for i < mid && j < hi {
				if src[j].before(&src[i]) {
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

// spanIndex answers "which spans overlap [start, end)" over a set of
// (start, elapsed) spans in O(log n + candidates): starts are sorted,
// and a span overlaps only if its start lies in (start-maxElapsed, end).
// Entries are ordered by (start, fragment index), so any ascending
// selection of one index is already ordered under sampleLess.
type spanIndex struct {
	pos        []int32 // pos[i]: the sample position or fragment index entry i names
	starts     []int64 // sorted
	elapsed    []int64
	covered    []bool // optional: covered flag of entry i
	maxElapsed int64
}

// newSpanIndex lays ordered entries out in columns.
func newSpanIndex(ents []spanEnt, withCovered bool) spanIndex {
	n := len(ents)
	ix := spanIndex{
		pos:     make([]int32, n),
		starts:  make([]int64, n),
		elapsed: make([]int64, n),
	}
	if withCovered {
		ix.covered = make([]bool, n)
	}
	for i := range ents {
		e := &ents[i]
		ix.pos[i], ix.starts[i], ix.elapsed[i] = e.pos, e.start, e.elapsed
		if withCovered {
			ix.covered[i] = e.covered
		}
		if e.elapsed > ix.maxElapsed {
			ix.maxElapsed = e.elapsed
		}
	}
	return ix
}

// classSpans orders the spans of rows [from, frags.Len()) into one
// index over fragment positions per heat-map class, each row under its
// own kind's class. The entries are pre-sized: a suffix of one kind
// throughout — every append to a computation edge, nearly every one to
// a vertex — is known whole from its first row, a mixed one is counted
// first.
func classSpans(frags trace.LogView, from int) (out [numClasses]spanIndex) {
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
	var ents [numClasses][]spanEnt
	for c, sz := range size {
		if sz > 0 {
			ents[c] = make([]spanEnt, 0, sz)
		}
	}
	for i := from; i < n; i++ {
		c := only
		if c < 0 {
			c = int(ClassOf(frags.Kind(i)))
		}
		_, start, elapsed := frags.Span(i)
		ents[c] = append(ents[c], spanEnt{start: start, elapsed: elapsed, pos: int32(i), frag: int32(i)})
	}
	for c := range ents {
		if len(ents[c]) > 0 {
			out[c] = newSpanIndex(orderSpans(ents[c]), false)
		}
	}
	return out
}

// mergeSpans merges two indexes over fragment positions. a predates b —
// every position in b is larger than every position in a — so on equal
// starts a's entries go first.
func mergeSpans(a, b spanIndex) spanIndex {
	n := len(a.pos) + len(b.pos)
	out := spanIndex{
		pos:        make([]int32, 0, n),
		starts:     make([]int64, 0, n),
		elapsed:    make([]int64, 0, n),
		maxElapsed: max(a.maxElapsed, b.maxElapsed),
	}
	i, j := 0, 0
	for i < len(a.pos) || j < len(b.pos) {
		if j >= len(b.pos) || (i < len(a.pos) && a.starts[i] <= b.starts[j]) {
			out.pos = append(out.pos, a.pos[i])
			out.starts = append(out.starts, a.starts[i])
			out.elapsed = append(out.elapsed, a.elapsed[i])
			i++
		} else {
			out.pos = append(out.pos, b.pos[j])
			out.starts = append(out.starts, b.starts[j])
			out.elapsed = append(out.elapsed, b.elapsed[j])
			j++
		}
	}
	return out
}

// candidates returns the [lo, hi) range of entries whose spans can
// overlap [start, end); each candidate still needs the exact
// start+elapsed > start check.
func (ix *spanIndex) candidates(start, end int64) (lo, hi int) {
	// A span [s, s+e) overlaps iff s < end && s+e > start, which needs
	// s > start-maxElapsed. A subtraction that wraps (start near
	// MinInt64) excludes nothing.
	if thresh := start - ix.maxElapsed; thresh <= start {
		lo = sort.Search(len(ix.starts), func(i int) bool { return ix.starts[i] > thresh })
	}
	hi = sort.Search(len(ix.starts), func(i int) bool { return ix.starts[i] >= end })
	return lo, hi
}

// prepFor returns the memoized window-independent analysis of one
// element: unchanged generations reuse it as-is, append-only advances
// patch the store in place, and everything else rebuilds. The
// clustering cache is consulted unconditionally so its hit/miss
// accounting keeps meaning "analysis passes that reused a clustering",
// warm prep or not.
func (a *Analyzer) prepFor(key cluster.Key, gen stg.Gen, frags trace.LogView, opt Options, ref ClusterRef) *prepElem {
	met := a.met
	var t0 time.Time
	if met != nil {
		t0 = time.Now()
	}
	var cl cluster.Result
	var d cluster.Delta
	if opt.DisableIncremental {
		cl = a.cache.RunBatch(key, gen, frags, opt.Cluster)
		d = cluster.Delta{Full: true}
	} else {
		cl, d = a.cache.RunInc(key, gen, frags, opt.Cluster)
	}
	if met != nil {
		a.clock.clusterNS.Add(since(t0))
	}
	if h := a.clusterHook; h != nil {
		if met != nil {
			t0 = time.Now()
		}
		h(key, gen, frags, cl, d)
		if met != nil {
			a.clock.hookNS.Add(since(t0))
		}
	}
	a.mu.Lock()
	p := a.preps[key]
	a.mu.Unlock()
	if p != nil && (p.flat != nil) != opt.DisableIncremental {
		p = nil // built in the other mode: neither served nor advanced
	}
	if p != nil && p.gen == gen && p.nfrags == frags.Len() && p.copt == opt.Cluster {
		return p
	}
	if met != nil {
		t0 = time.Now()
	}
	if p != nil && p.store != nil {
		oldN := p.nfrags
		if p.advanceStore(frags, cl, d, opt, gen) {
			if met != nil {
				a.clock.normNS.Add(since(t0))
				met.PrepIncremental.Inc()
				met.DirtySpanPct.Observe(int64(d.Ratio*100 + 0.5))
				met.StoreAppends.Add(uint64(frags.Len() - oldN))
			}
			return p
		}
	}
	p = buildPrep(frags, cl, ref, opt, gen)
	if met != nil {
		a.clock.normNS.Add(since(t0))
		met.PrepRebuilds.Inc()
		if p.store != nil {
			met.StoreAppends.Add(uint64(frags.Len()))
		}
	}
	a.mu.Lock()
	a.preps[key] = p
	a.mu.Unlock()
	return p
}

// buildPrep builds an element's prep from scratch, in the body opt
// selects.
func buildPrep(frags trace.LogView, cl cluster.Result, ref ClusterRef, opt Options, gen stg.Gen) *prepElem {
	minFrag := opt.Cluster.MinFragments
	if minFrag <= 0 {
		minFrag = 5
	}
	p := &prepElem{gen: gen, nfrags: frags.Len(), copt: opt.Cluster, ref: ref, minFrag: minFrag}
	p.countClusters(cl)
	if opt.DisableIncremental {
		p.flat = buildFlat(frags, cl, ref, minFrag)
	} else {
		p.buildStore(frags, cl)
	}
	return p
}

// window fills out with the element's contribution to one analysis
// window — exactly what normalizeElement(frags, cl, ref, opt, start,
// end) computes, but as runs of references into the memoized
// full-population prep: each run is an ascending selection of one span
// index, which the stage-2 merge materializes exactly once into the
// final right-sized stream.
func (p *prepElem) window(start, end int64, out *elemOut) {
	out.fixedClusters = p.fixedClusters
	out.smallClusters = p.smallClusters
	if p.flat != nil {
		p.flat.window(start, end, out)
	} else {
		p.windowStore(start, end, out)
	}
}
