package detect

import (
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
	// frags is the element's log as of the pass serving the prep: the
	// store reads every span it orders, filters and emits from it.
	frags trace.LogView

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
		p.frags = frags
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
	p := &prepElem{gen: gen, nfrags: frags.Len(), copt: opt.Cluster, ref: ref, minFrag: minFrag, frags: frags}
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
