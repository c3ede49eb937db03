// Cluster memoization: the analysis layers above (whole-run detection,
// the online monitor's overlapped windows, diagnosis drill-down) all
// need the clustering of the same STG edges and vertices. A Cache keys
// one Result per element on (element identity, generation watermark,
// options); an unchanged element is a pure hit, an append-only advance
// (same epoch, grown count) takes the incremental splice in
// incremental.go, and everything else re-clusters from scratch.
package cluster

import (
	"sync"
	"sync/atomic"

	"vapro/internal/stg"
	"vapro/internal/trace"
)

// Key identifies one STG element (an edge or a vertex) in the cache.
type Key struct {
	IsEdge bool
	Edge   trace.EdgeKey
	Vertex uint64
}

// EdgeKey builds the cache key of an STG edge.
func EdgeKey(k trace.EdgeKey) Key { return Key{IsEdge: true, Edge: k} }

// VertexKey builds the cache key of an STG vertex.
func VertexKey(v uint64) Key { return Key{Vertex: v} }

// entry is one element's cached clustering plus its incremental state.
// mu serializes all access to the fields below it, so concurrent
// updates of the SAME element are ordered while different elements
// proceed in parallel (the detection worker pool's access pattern).
type entry struct {
	mu     sync.Mutex
	have   bool
	gen    stg.Gen
	nfrags int
	opt    Options
	res    Result
	inc    *incState
}

// Cache memoizes per-element clusterings. It is safe for concurrent
// use; the parallel detection pipeline hits it from its worker pool.
type Cache struct {
	mu      sync.RWMutex
	entries map[Key]*entry

	hits, misses, evictions atomic.Uint64
	incHits, staleRejects   atomic.Uint64
	// Incremental fallbacks: a vector-shape change.
	incFallbacks atomic.Uint64
	// Re-cuts: appended fragments whose band reached a resident seed.
	incRecuts atomic.Uint64
	// assignBytes is the heap bytes of the cached Results' label chunks,
	// moved by every commit that allocates or drops one.
	assignBytes atomic.Int64
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{entries: make(map[Key]*entry)} }

func (c *Cache) entryFor(key Key) *entry {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e != nil {
		return e
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.entries[key]; e == nil {
		e = &entry{}
		c.entries[key] = e
	}
	return e
}

// RunInc returns the clustering of frags, memoized on (key, gen, opt),
// plus the Delta relating it to the previous generation's Result.
//
// gen must be the element's generation watermark (stg.Edge.Gen /
// stg.Vertex.Gen): Count is the append-log length, Epoch bumps on any
// non-append replacement. Three paths:
//
//   - unchanged (gen, count, options match): pure hit;
//   - append-only advance (same epoch, grown count): the incremental
//     splice — one band walk on the 1-D and the multi-D plane alike,
//     which re-cuts the resident clusters an appended fragment's band
//     reaches — equivalent to Run by construction and pinned by the
//     equivalence fuzzes; falls back to a full Run only when the element
//     changed vector shape (a 1-D element saw a comm/IO fragment);
//   - anything else — epoch bump, option change, first sight: full Run.
//
// A STALE generation (an older snapshot of the element, from a caller
// holding an earlier view) is answered with a one-off batch clustering
// and does not regress the cached state.
//
// The returned Result is shared between callers and read-only.
func (c *Cache) RunInc(key Key, gen stg.Gen, frags trace.LogView, opt Options) (Result, Delta) {
	return c.run(key, gen, frags, opt, true)
}

// Run is RunInc without the delta, for callers that only consume the
// clustering itself.
func (c *Cache) Run(key Key, gen stg.Gen, frags trace.LogView, opt Options) Result {
	res, _ := c.run(key, gen, frags, opt, true)
	return res
}

// RunBatch memoizes like RunInc but never takes the incremental path:
// every generation change pays a full Run. It exists to benchmark the
// batch plane against the incremental one and as an escape hatch; the
// results are identical either way.
func (c *Cache) RunBatch(key Key, gen stg.Gen, frags trace.LogView, opt Options) Result {
	res, _ := c.run(key, gen, frags, opt, false)
	return res
}

func (c *Cache) run(key Key, gen stg.Gen, frags trace.LogView, opt Options, allowInc bool) (Result, Delta) {
	opt = opt.normalized()
	e := c.entryFor(key)
	e.mu.Lock()
	defer e.mu.Unlock()

	if e.have && e.gen == gen && e.nfrags == frags.Len() && e.opt == opt {
		c.hits.Add(1)
		return e.res, Delta{From: gen}
	}
	if e.have && e.opt == opt && gen.Epoch == e.gen.Epoch && gen.Count < e.gen.Count {
		// Stale read: compute it on the side, keep the fresher entry.
		c.staleRejects.Add(1)
		return Run(frags, opt), Delta{From: gen, Full: true}
	}
	if allowInc && e.have && e.opt == opt && e.inc != nil &&
		gen.Epoch == e.gen.Epoch && gen.Count > e.gen.Count &&
		uint64(frags.Len()) == gen.Count && uint64(e.nfrags) == e.gen.Count {
		// Append-only advance: Gen.Count is the append-log length, so
		// frags[e.nfrags:] is exactly what arrived since e.gen.
		res, d, recuts, ok := e.inc.update(frags, e.res, opt)
		if ok {
			c.incHits.Add(1)
			c.incRecuts.Add(uint64(recuts))
			d.From = e.gen
			c.assignBytes.Add(res.assign.bytes() - e.res.assign.bytes())
			e.gen, e.nfrags, e.res = gen, frags.Len(), res
			return res, d
		}
		c.incFallbacks.Add(1)
	}
	c.misses.Add(1)
	if e.have {
		c.evictions.Add(1) // stale entry replaced by a fresher clustering
	}
	res, inc := runCapture(frags, opt, allowInc)
	c.assignBytes.Add(res.assign.bytes() - e.res.assign.bytes())
	e.have, e.gen, e.nfrags, e.opt, e.res = true, gen, frags.Len(), opt, res
	e.inc = inc
	return res, Delta{From: gen, Full: true}
}

// Len returns the number of cached elements.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Stats returns the hit/miss counters accumulated so far. Hits are
// unchanged-generation reuses; misses are full re-clusterings
// (incremental advances count in neither — see IncStats).
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// IncStats returns the incremental-path counters: advances that spliced
// the previous clustering; fallbacks, where the splice was abandoned
// and a full Run was paid instead, which happens only when the element
// changed vector shape (a 1-D element saw a comm/IO fragment); and
// re-cuts, the spliced advances' O(resident) step on either plane — an
// appended fragment whose band reached a resident cluster's seed, so
// the members of the clusters it reached were gathered and re-cut. A
// re-cut is not a fallback: its advance also counts as a hit.
func (c *Cache) IncStats() (incHits, incFallbacks, recuts uint64) {
	return c.incHits.Load(), c.incFallbacks.Load(), c.incRecuts.Load()
}

// StaleRejects returns how many lookups carried an older generation
// than the cached one and were answered off to the side.
func (c *Cache) StaleRejects() uint64 {
	return c.staleRejects.Load()
}

// AssignBytes returns the heap bytes of the label chunks behind the
// cached clusterings' Assign (the chunks in use; an older Result a
// caller still holds keeps its own). Lock-free: a scrape takes no entry
// lock.
func (c *Cache) AssignBytes() int64 { return c.assignBytes.Load() }

// Evictions returns how many cached clusterings were discarded: stale
// entries overwritten on recompute.
func (c *Cache) Evictions() uint64 {
	return c.evictions.Load()
}
