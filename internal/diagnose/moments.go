package diagnose

import (
	"math"

	"vapro/internal/stats"
	"vapro/internal/trace"
)

// ClusterMoments accumulates one fixed-workload cluster's contribution
// to the §4.2 pooled regression in moment form: raw second moments of
// v = [1, f1..fk, elapsed] plus per-column min/max. The per-cluster
// [0,1] normalization §4.2 applies to every fragment's metrics is an
// affine map, so it can be applied to the moments at solve time
// (normalized moments = T·M·T' for the triangular T built from the
// current lo/span) — which is what lets a cluster grow by rank-1 Adds
// while the quantification stays equivalent to refitting from scratch.
//
// Raw values are shifted by the first-seen member's values so the
// accumulated products stay small (Start- and TotIns-sized magnitudes
// would otherwise eat the mantissa and break the 1e-9 equivalence).
type ClusterMoments struct {
	factors []Factor
	osOnly  bool // every factor is an OS factor: its Metric reads only osCounters
	n       int
	m       []float64 // (k+2)×(k+2) row-major moments of the shifted v, upper triangle only (see cell)
	shift   []float64 // first member's raw [f1..fk, y]
	os      [6]uint64 // first member's osCounters
	lo, hi  []float64 // raw per-column min/max [f1..fk, y]
	buf     []float64 // scratch v (buf[0] = 1), preallocated so Add never allocates
	nz      []int     // scratch: v's nonzero entries, [0] = the intercept
}

// osCounters are the counters the OS factors' Metric reads: suspension
// time and the event counts.
func osCounters(f *trace.Fragment) [6]uint64 {
	c := &f.Counters
	return [6]uint64{uint64(c.SuspensionNS), c.SoftPF, c.HardPF, c.VolCS, c.InvolCS, c.Signals}
}

// NewClusterMoments returns an accumulator for the given factor set.
func NewClusterMoments(factors []Factor) *ClusterMoments {
	k := len(factors)
	d := k + 2
	c := &ClusterMoments{
		factors: factors,
		m:       make([]float64, d*d),
		shift:   make([]float64, k+1),
		lo:      make([]float64, k+1),
		hi:      make([]float64, k+1),
		buf:     make([]float64, d),
		nz:      make([]int, 1, d),
	}
	c.buf[0], c.osOnly = 1, true
	for _, f := range factors {
		c.osOnly = c.osOnly && (f == Suspension || !f.Quantifiable())
	}
	for j := range c.lo {
		c.lo[j] = math.MaxFloat64
		c.hi[j] = -math.MaxFloat64
	}
	return c
}

// Add folds one cluster member into the moments. It never allocates.
//
// The fold is the rank-1 update m += v·v' over only the entries of
// v = [1, f−shift, y−shift] that are not exactly zero, upper triangle
// only. It is bitwise the dense update for every input:
//   - a skipped product has a ±0 factor and a finite other one: it is ±0;
//   - a cell starts at +0 and never becomes −0 (an exact cancellation
//     rounds to +0, and −0 only survives −0 + −0), so x + (±0) = x;
//   - a row with a non-finite entry (0·Inf is NaN) is folded densely;
//   - a column bitwise equal to its shift gives v = +0 (when finite) and
//     already lies inside lo/hi (math.Min/Max are idempotent), so only
//     the others touch lo/hi;
//   - when every factor is an OS factor and the row's osCounters are the
//     first member's, every factor column is bitwise its shift (and
//     finite: a count or a time in ns), so none is even computed.
//
// OS event counts are zero on most fragments, so a steady tick folds
// the intercept and elapsed: 3 products instead of d²; a row with every
// column armed walks the triangle without the index list.
// FuzzClusterMoments pins all of it against the dense update.
func (c *ClusterMoments) Add(frag *trace.Fragment) {
	k := len(c.factors)
	d := k + 2
	shift, lo, hi := c.shift[:k+1], c.lo[:k+1], c.hi[:k+1]
	v, nz := c.buf[:d], c.nz
	first, finite := c.n == 0, true
	from, os := 0, osCounters(frag) // from: the first column to fold
	if first {
		c.os = os
	} else if c.osOnly && os == c.os {
		from = k
		clear(v[1 : k+1])
	}
	for j := from; j < k; j++ {
		v[j+1] = Metric(c.factors[j], frag)
	}
	v[k+1] = float64(frag.Elapsed)
	for j := from; j <= k; j++ {
		raw := v[j+1]
		if first {
			shift[j] = raw
		}
		if first || math.Float64bits(raw) != math.Float64bits(shift[j]) {
			lo[j] = math.Min(lo[j], raw)
			hi[j] = math.Max(hi[j], raw)
		}
		x := raw - shift[j]
		v[j+1] = x
		if x != 0 {
			nz = append(nz, j+1)
			finite = finite && x-x == 0
		}
	}
	if len(nz) == d || !finite {
		for i := 0; i < d; i++ {
			vi, row := v[i], c.m[i*d:i*d+d]
			for j := i; j < d; j++ {
				row[j] += vi * v[j]
			}
		}
	} else {
		for a, i := range nz {
			vi, row := v[i], c.m[i*d:i*d+d]
			for _, j := range nz[a:] {
				row[j] += vi * v[j]
			}
		}
	}
	c.n++
}

// cell returns moment (i, j), mirroring the triangle Add keeps.
func (c *ClusterMoments) cell(i, j int) float64 { return c.m[min(i, j)*(len(c.factors)+2)+max(i, j)] }

// span returns column j's normalization span (hi−lo, degenerate spans
// forced to 1) and whether it was degenerate.
func (c *ClusterMoments) span(j int) (float64, bool) {
	s := c.hi[j] - c.lo[j]
	if s <= 0 {
		return 1, true
	}
	return s, false
}

// normalized returns T·M·T': the moments of [1, x1..xk, y] after the
// per-cluster [0,1] normalization. Row 0 of T is e0; row j is
// e_j/span_j − (lo'_j/span_j)·e0 with lo' = lo − shift, because the
// stored moments are of the shifted values.
func (c *ClusterMoments) normalized() []float64 {
	k := len(c.factors)
	d := k + 2
	scale := make([]float64, d)
	off := make([]float64, d)
	scale[0] = 1
	for j := 1; j < d; j++ {
		s, _ := c.span(j - 1)
		scale[j] = 1 / s
		off[j] = -(c.lo[j-1] - c.shift[j-1]) / s
	}
	// T has one off-diagonal column (the intercept), so T·M·T' expands
	// cheaply: P[i][j] = si·sj·M[i][j] + si·oj·M[i][0] + oi·sj·M[0][j]
	// + oi·oj·M[0][0].
	p := make([]float64, d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			p[i*d+j] = scale[i]*scale[j]*c.cell(i, j) +
				scale[i]*off[j]*c.m[i] +
				off[i]*scale[j]*c.m[j] +
				off[i]*off[j]*c.m[0]
		}
	}
	return p
}

// momentData is the pooled normalized design of §4.2 in moment form.
type momentData struct {
	factors []Factor
	k       int
	n       int
	p       []float64 // (k+2)×(k+2) pooled normalized moments
	// degenerate[j]: every contributing cluster had no variation in
	// factor j — the moment-form equivalent of a constant column.
	degenerate []bool
	yNormSum   float64   // Σ n_c·ySpan_c (mean per-observation y scale ×N)
	fNormSum   []float64 // per factor: Σ n_c·span_c
}

// poolMoments folds the per-cluster moments into the pooled design,
// skipping clusters below the 3-member floor.
func poolMoments(streams []*ClusterMoments, factors []Factor) *momentData {
	k := len(factors)
	d := k + 2
	md := &momentData{
		factors:    factors,
		k:          k,
		p:          make([]float64, d*d),
		degenerate: make([]bool, k+1),
		fNormSum:   make([]float64, k),
	}
	for j := range md.degenerate {
		md.degenerate[j] = true
	}
	for _, c := range streams {
		if c == nil || c.n < 3 {
			continue
		}
		md.n += c.n
		cp := c.normalized()
		for i := range md.p {
			md.p[i] += cp[i]
		}
		for j := 0; j < k; j++ {
			s, deg := c.span(j)
			if !deg {
				md.degenerate[j] = false
			}
			md.fNormSum[j] += float64(c.n) * s
		}
		ySpan, ydeg := c.span(k)
		if !ydeg {
			md.degenerate[k] = false
		}
		md.yNormSum += float64(c.n) * ySpan
	}
	return md
}

// cross returns the pooled centered cross-moment Σ(xi−x̄i)(xj−x̄j) of
// normalized columns i and j (k+2 indexing: 0 intercept, 1..k factors,
// k+1 elapsed).
func (md *momentData) cross(i, j int) float64 {
	d := md.k + 2
	n := float64(md.n)
	return md.p[i*d+j] - md.p[i]*md.p[j]/n
}

// corr is the moment form of stats.Corr over two normalized columns.
func (md *momentData) corr(i, j int) float64 {
	sxx, syy := md.cross(i, i), md.cross(j, j)
	if sxx <= 0 || syy <= 0 {
		return 0
	}
	return md.cross(i, j) / math.Sqrt(sxx*syy)
}

// farrarGlauber is the moment form of stats.FarrarGlauber over the
// active columns.
func (md *momentData) farrarGlauber(cols []int, alpha float64) (stat, p float64, multi bool) {
	k := len(cols)
	if k < 2 {
		return 0, 1, false
	}
	r := stats.NewMatrix(k, k)
	for i := 0; i < k; i++ {
		r.Set(i, i, 1)
		for j := i + 1; j < k; j++ {
			c := md.corr(cols[i], cols[j])
			r.Set(i, j, c)
			r.Set(j, i, c)
		}
	}
	det := r.Det()
	if det <= 0 {
		return math.Inf(1), 0, true
	}
	stat = -(float64(md.n-1) - (2*float64(k)+5)/6) * math.Log(det)
	if stat < 0 {
		stat = 0
	}
	df := float64(k*(k-1)) / 2
	p = stats.ChiSquareSF(stat, df)
	return stat, p, p < alpha
}

// design returns X'X and X'y of regressing column y on the given
// columns, with the intercept in position 0.
func (md *momentData) design(cols []int, y int) (xtx, xty []float64) {
	d := md.k + 2
	kk := len(cols)
	xtx = make([]float64, (kk+1)*(kk+1))
	xty = make([]float64, kk+1)
	at := func(i, j int) float64 { return md.p[i*d+j] }
	xtx[0] = at(0, 0)
	xty[0] = at(0, y)
	for i, ci := range cols {
		xtx[i+1] = at(0, ci)
		xtx[(i+1)*(kk+1)] = at(ci, 0)
		xty[i+1] = at(ci, y)
		for j, cj := range cols {
			xtx[(i+1)*(kk+1)+j+1] = at(ci, cj)
		}
	}
	return xtx, xty
}

// solve runs SolveMomentOLS regressing column y on the given columns.
func (md *momentData) solve(cols []int, y int) (*stats.OLSResult, error) {
	xtx, xty := md.design(cols, y)
	return stats.SolveMomentOLS(md.n, len(cols), xtx, xty, md.p[y*(md.k+2)+y])
}

// collinear is the R² at or above which a column counts as an exact
// linear function of the columns it is regressed on.
const collinear = 1 - 1e-9

// r2 returns the R² of regressing column y on cols: 0 on no columns, 1
// when their design is singular.
func (md *momentData) r2(cols []int, y int) float64 {
	if len(cols) == 0 {
		return 0
	}
	xtx, xty := md.design(cols, y)
	r2, err := stats.MomentR2(md.n, len(cols), xtx, xty, md.p[y*(md.k+2)+y])
	if err != nil {
		return 1
	}
	return r2
}

// basis returns a basis of the span of cols: walking them in order, it
// keeps each column whose R² on the columns kept so far is below
// collinear. When cols are linearly independent it is cols itself.
func (md *momentData) basis(cols []int) []int {
	out := make([]int, 0, len(cols))
	for _, c := range cols {
		if md.r2(out, c) < collinear {
			out = append(out, c)
		}
	}
	return out
}

// vif is the moment form of stats.VIF over the active columns, with a
// deterministic rule for exact collinearity: each column is regressed
// on a basis of the other columns' span, so a singular set of others
// does not leave its VIF to rounding, and a column they explain to
// R² ≥ collinear reads +Inf. Of two identical columns (a parent whose
// sibling counter is always 0, and that sibling's twin) both read +Inf,
// while a column the others do not explain reads finite even when the
// others are singular among themselves; the drop loop takes the first
// +Inf in factor order, and stage-2 factors sort before stage-3 ones,
// so the parent goes.
func (md *momentData) vif(cols []int) []float64 {
	out := make([]float64, len(cols))
	others := make([]int, 0, len(cols))
	for j, c := range cols {
		others = append(append(others[:0], cols[:j]...), cols[j+1:]...)
		if len(others) == 0 {
			out[j] = 1
			continue
		}
		if r2 := md.r2(md.basis(others), c); r2 >= collinear {
			out[j] = math.Inf(1)
		} else {
			out[j] = 1 / (1 - r2)
		}
	}
	return out
}
