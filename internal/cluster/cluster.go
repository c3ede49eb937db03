// Package cluster implements the fixed-workload identification of §3.4
// (Algorithm 1): per STG edge or vertex, fragments are represented as
// workload vectors, sorted by Euclidean norm, and greedily grouped —
// the unprocessed fragment with the smallest norm seeds a cluster that
// absorbs every fragment within a relative distance threshold. The
// algorithm is linear in the number of fragments (after the sort) and
// needs no prior knowledge of the number of workload classes, which is
// what makes it cheap enough for online production use.
package cluster

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"vapro/internal/trace"
)

// Options configures the clustering.
type Options struct {
	// Threshold is the relative distance below which two workload
	// vectors are considered the same workload (paper: 5%).
	Threshold float64
	// MinFragments is the minimum cluster population for the cluster
	// to count as repeated fixed workload (paper: 5). Smaller clusters
	// are reported separately (Algorithm 1 line 8).
	MinFragments int
	// UseExtraMetrics adds loads/stores to the computation workload
	// vector (the paper's optional higher-precision mode).
	UseExtraMetrics bool
	// MaxDirtyRatio bounds the incremental re-cluster: when an append
	// batch forces recomputing more than this fraction of an element's
	// sorted order, the incremental path abandons the splice and
	// re-clusters from scratch. 0 means 1.0 — no fallback: even a fully
	// dirty update is a few linear passes, cheaper than Run's
	// re-sort, so the bound exists as a safety valve, not a default.
	// It never changes results, only which path computes them.
	MaxDirtyRatio float64
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{Threshold: 0.05, MinFragments: 5}
}

// normalized fills the zero fields with the paper defaults, so
// semantically identical option values compare equal (the cache keys on
// the normalized form).
func (o Options) normalized() Options {
	if o.Threshold <= 0 {
		o.Threshold = 0.05
	}
	if o.MinFragments <= 0 {
		o.MinFragments = 5
	}
	if o.MaxDirtyRatio <= 0 {
		o.MaxDirtyRatio = 1.0
	}
	return o
}

// Vector is a workload vector: normalized performance metrics and/or
// invocation arguments (§3.4).
type Vector []float64

// Norm returns the Euclidean norm.
func (v Vector) Norm() float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dist returns the Euclidean distance to o. Vectors of unequal length
// compare only the common prefix (never happens for same-site data).
func (v Vector) Dist(o Vector) float64 { return math.Sqrt(distSq(v, o)) }

// distSq is Dist without the final square root: the clustering inner
// loop compares squared distances against a squared threshold instead.
func distSq(v, o Vector) float64 {
	n := len(v)
	if len(o) < n {
		n = len(o)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := v[i] - o[i]
		s += d * d
	}
	return s
}

// VectorOf builds the workload vector of f.
func VectorOf(f *trace.Fragment, opt Options) Vector { return appendVector(nil, f, opt) }

// appendVector appends the workload vector of f to dst. A computation
// fragment's is TOT_INS, the crucial proxy metric (Figure 5 shows it
// stays stable under noise while TSC does not), optionally refined by
// loads/stores. A communication or IO fragment's is its invocation
// arguments: PMU values of a busy-wait are meaningless (§3.3), so
// size/peers/mode approximate the workload.
func appendVector(dst []float64, f *trace.Fragment, opt Options) []float64 {
	if f.Kind == trace.Comp {
		dst = append(dst, float64(f.Counters.TotIns))
		if opt.UseExtraMetrics {
			dst = append(dst, float64(f.Counters.LoadStores))
		}
		return dst
	}
	return append(dst,
		float64(f.Args.Bytes),
		float64(f.Args.Peer+2)*1e-3, // shifted so AnySource(-1) differs from rank 0
		float64(f.Args.Tag)*1e-3,
		float64(f.Args.Mode)*1e-3)
}

// maxVectorDims bounds the dimensionality of any workload vector.
const maxVectorDims = 4

// wvec is one workload vector held by value.
type wvec struct {
	x [maxVectorDims]float64
	n int
}

func (w *wvec) vec() Vector { return w.x[:w.n] }

// read fills w with row i's workload vector, read through f from the
// lanes it is built from. Reading a row twice gives the same ints
// through the same float expressions, so a vector read back is
// bit-identical to the one read before.
func (w *wvec) read(frags trace.LogView, i int, opt Options, f *trace.Fragment) Vector {
	frags.ReadWorkload(i, f)
	w.n = len(appendVector(w.x[:0], f, opt))
	return w.vec()
}

// scratch holds the working set of one clustering call — Run's or an
// incremental advance's — recycled through a sync.Pool so repeated
// clustering (the analysis hot path) does not re-allocate it and no
// element keeps any of it between advances. Nothing in a returned Result
// or Delta aliases the scratch.
type scratch struct {
	// norms holds Run's norms, or a 1-D advance's for its appended batch.
	norms     []float64
	order     []int32
	processed []bool
	// vecs holds multi-D workload vectors: Run's for every fragment, an
	// advance's for the appended batch.
	vecs []wvec
	// An advance's: mergeAppended's outputs and radix keys, updateMultiD's
	// absorb flags and batch positions, the 1-D update's run list.
	batch, inserted, ipos []int32
	keys                  []normKey
	absorbed              []bool
	jOf                   []int32
	mids                  []midRun
}

// Run and the advances draw from separate pools. A Run's scratch is
// sized by a whole element and an advance's by its batch; advances run
// every tick, and sharing one pool would keep the largest Run's buffers
// in circulation instead of letting the GC take them.
var (
	scratchPool = sync.Pool{New: func() any { return new(scratch) }}
	advancePool = sync.Pool{New: func() any { return new(scratch) }}
)

// resize returns s with length n, reusing its backing when it fits.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Cluster is one identified workload class. Which fragments belong to
// it is Result.Assign's answer alone; Result.Groups lists them for the
// cold readers that need lists.
type Cluster struct {
	// Size is the number of member fragments.
	Size int
	// Seed is the member with the smallest norm.
	Seed int
	// SeedNorm is the norm of the seed vector.
	SeedNorm float64
	// Fixed reports whether the cluster is large enough to be treated
	// as repeated fixed workload.
	Fixed bool
}

// Result is the clustering of one STG edge or vertex.
type Result struct {
	Clusters []Cluster
	// Assign maps fragment index -> cluster index (-1 for none; cannot
	// happen with Algorithm 1, every fragment lands somewhere).
	Assign []int32
	// Small is the number of clusters below MinFragments (reported to
	// the user as possibly-abnormal rarely-executed paths).
	Small int
}

// Run clusters the fragments with Algorithm 1. The input order is
// irrelevant to the result (fragments are sorted by norm internally).
// Callers holding a plain slice wrap it with trace.LogOf.
func Run(frags trace.LogView, opt Options) Result {
	res, _ := runCapture(frags, opt, false)
	return res
}

// runCapture is Run plus an optional capture of the incremental state
// (norm-sorted order, cluster seed positions, multi-D norms) straight
// out of the working set, so the cache does not pay a second sort to
// seed the delta path. Neither multi-D vectors nor 1-D norms are
// captured: the log keeps their inputs.
func runCapture(frags trace.LogView, opt Options, capture bool) (Result, *incState) {
	opt = opt.normalized()
	n := frags.Len()
	res := Result{Assign: make([]int32, n)}
	for i := range res.Assign {
		res.Assign[i] = -1
	}
	if n == 0 {
		// An empty element captures the 1-D state (a comm/IO suffix
		// kills it on sight). Under UseExtraMetrics no element is 1-D:
		// capture nothing, and the first growth clusters from scratch.
		var st *incState
		if capture && !opt.UseExtraMetrics {
			st = &incState{runStart: []int32{0}}
		}
		return res, st
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.norms, sc.order, sc.processed = resize(sc.norms, n), resize(sc.order, n), resize(sc.processed, n)
	clear(sc.processed)
	norms, order := sc.norms, sc.order

	// The dominant population is 1-D TOT_INS computation vectors; for
	// those the vector IS its norm (TOT_INS ≥ 0), so the whole pass runs
	// on the norms array with no per-fragment vector at all, and the
	// distance is |a−b| (exactly what Dist computes in 1-D).
	oneD := !opt.UseExtraMetrics && frags.AllKind(0, trace.Comp)
	var vecs []wvec
	if oneD {
		for i := 0; i < n; i++ {
			norms[i] = float64(frags.TotIns(i))
			order[i] = int32(i)
		}
	} else {
		sc.vecs = resize(sc.vecs, n)
		vecs = sc.vecs
		var f trace.Fragment
		for i := range vecs {
			norms[i] = vecs[i].read(frags, i, opt, &f).Norm()
			order[i] = int32(i)
		}
	}
	// Line 2: sort by norm. Stable, so ties keep ascending fragment
	// index — the canonical order the incremental path reproduces.
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(norms[a], norms[b]) })

	// Lines 3-7: greedy minimum-norm seeded clusters. Because the
	// candidates are norm-sorted, all members of a cluster lie in the
	// contiguous norm range [seed, seed*(1+threshold)]; the scan is a
	// single forward pass, linear overall.
	processed := sc.processed
	var seedPos []int32 // per-cluster seed position in order, when capturing
	for pos := 0; pos < n; pos++ {
		seed := order[pos]
		if processed[seed] {
			continue
		}
		if capture {
			seedPos = append(seedPos, int32(pos))
		}
		ci := int32(len(res.Clusters))
		c := Cluster{Seed: int(seed), SeedNorm: norms[seed]}
		limit := norms[seed] * (1 + opt.Threshold)
		maxDist := norms[seed] * opt.Threshold
		if norms[seed] == 0 {
			// Zero-norm seeds (e.g. zero-byte ops) absorb only other
			// zero vectors.
			limit, maxDist = 0, 0
		}
		maxDistSq := maxDist * maxDist
		for q := pos; q < n; q++ {
			cand := order[q]
			if norms[cand] > limit {
				break
			}
			if processed[cand] {
				continue
			}
			var in bool
			if oneD {
				// norms are sorted, so norms[cand]−norms[seed] ≥ 0 is
				// exactly the 1-D Euclidean distance.
				in = norms[cand]-norms[seed] <= maxDist
			} else {
				in = distSq(vecs[cand].vec(), vecs[seed].vec()) <= maxDistSq
			}
			if in {
				processed[cand] = true
				res.Assign[cand] = ci
				c.Size++
			}
		}
		c.Fixed = c.Size >= opt.MinFragments
		if !c.Fixed {
			res.Small++
		}
		res.Clusters = append(res.Clusters, c)
	}
	var st *incState
	if capture {
		st = &incState{n: n, order: slices.Clone(order), assign: res.Assign}
		if oneD {
			// 1-D clusters are contiguous runs: the seed positions are
			// exactly the run starts.
			st.runStart = append(seedPos, int32(n))
		} else {
			st.multiD = true
			st.norms = slices.Clone(norms)
			st.seedPos = seedPos
		}
	}
	return res, st
}

// Groups returns every cluster's members, indexed like Clusters, each
// list in ascending fragment order: one pass over Assign into a single
// backing array cut by the clusters' sizes.
func (r *Result) Groups() [][]int32 {
	groups := make([][]int32, len(r.Clusters))
	flat := make([]int32, len(r.Assign))
	off := 0
	for ci := range r.Clusters {
		n := r.Clusters[ci].Size
		groups[ci] = flat[off : off : off+n]
		off += n
	}
	for i, ci := range r.Assign {
		if ci >= 0 {
			groups[ci] = append(groups[ci], int32(i))
		}
	}
	return groups
}

// FixedFraction returns the fraction of total elapsed time that falls in
// fixed (large-enough) clusters — the per-edge contribution to detection
// coverage (§6.2).
func (r *Result) FixedFraction(frags trace.LogView) float64 {
	var fixed, total int64
	for i := 0; i < frags.Len(); i++ {
		_, _, elapsed := frags.Span(i)
		total += elapsed
		ci := r.Assign[i]
		if ci >= 0 && r.Clusters[ci].Fixed {
			fixed += elapsed
		}
	}
	if total == 0 {
		return 0
	}
	return float64(fixed) / float64(total)
}
