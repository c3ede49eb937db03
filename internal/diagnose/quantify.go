package diagnose

import (
	"math"
	"slices"
	"sort"

	"vapro/internal/trace"
)

// OLSQuant is the result of the OLS-based statistical quantification of
// §4.2 for one pooled set of fixed-workload clusters.
type OLSQuant struct {
	// TimePerUnit maps each factor to its estimated time cost per unit
	// of its metric (ns per ns for quantifiable factors, ns per event
	// for counts). Factors estimated indirectly through their
	// multicollinear relationship are included.
	TimePerUnit map[Factor]float64
	// PValue maps factors kept in the regression to their two-sided
	// p-values; factors dropped for multicollinearity are absent.
	PValue map[Factor]float64
	// Dropped lists factors removed by the Farrar–Glauber screen.
	Dropped []Factor
	// R2 is the fit quality of the final regression.
	R2 float64
	// FGStat / FGPValue describe the last Farrar–Glauber test run.
	FGStat, FGPValue float64
}

// QuantifyOLS runs the §4.2 statistical method on the pooled clusters
// for the given factors: it folds each cluster into its moments and
// solves them (QuantifyMoments).
func QuantifyOLS(clusters [][]trace.Fragment, factors []Factor) *OLSQuant {
	return QuantifyMoments(momentsOf(clusters, nil, factors), factors)
}

// momentsOf returns one moment set per cluster over factors: warm[i]
// when it is there and was folded over factors, otherwise one folded
// from the cluster's rows.
func momentsOf(clusters [][]trace.Fragment, warm []*ClusterMoments, factors []Factor) []*ClusterMoments {
	out := make([]*ClusterMoments, len(clusters))
	for i, frags := range clusters {
		if i < len(warm) && warm[i] != nil && slices.Equal(warm[i].factors, factors) {
			out[i] = warm[i]
			continue
		}
		cm := NewClusterMoments(factors)
		for j := range frags {
			cm.Add(&frags[j])
		}
		out[i] = cm
	}
	return out
}

// QuantifyMoments runs the §4.2 statistical method on per-cluster
// moments (ClusterMoments): normalize each cluster to [0,1] (an affine
// map of its moments), pool them, discard constant columns, remove
// multicollinear factors one by one (the first +Inf VIF in factor
// order, else the highest) until the Farrar–Glauber test passes, fit
// OLS, keep significant factors (p < 0.05), rescale coefficients back
// to time units, and estimate dropped factors through their
// relationship with the kept ones. It is the design-matrix method in
// moment form: the equivalence fuzz pins it to a design-matrix
// reference within floating-point reassociation (1e-9 relative), with
// identical decisions (drops, significance) away from threshold ties.
func QuantifyMoments(streams []*ClusterMoments, factors []Factor) *OLSQuant {
	q := &OLSQuant{
		TimePerUnit: make(map[Factor]float64),
		PValue:      make(map[Factor]float64),
	}
	md := poolMoments(streams, factors)
	if md.n < len(factors)+3 {
		return q
	}
	col := func(f Factor) int {
		for i, ff := range factors {
			if ff == f {
				return i + 1
			}
		}
		return -1
	}
	yCol := md.k + 1

	active := make([]Factor, 0, len(factors))
	for i, f := range factors {
		if !md.degenerate[i] {
			active = append(active, f)
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })

	cols := func() []int {
		out := make([]int, len(active))
		for i, f := range active {
			out[i] = col(f)
		}
		return out
	}
	for len(active) >= 2 {
		stat, p, multi := md.farrarGlauber(cols(), 0.05)
		q.FGStat, q.FGPValue = stat, p
		if !multi {
			break
		}
		vifs := md.vif(cols())
		worst, worstV := 0, -1.0
		for i, v := range vifs {
			if math.IsInf(v, 1) {
				worst, worstV = i, math.Inf(1)
				break
			}
			if v > worstV {
				worst, worstV = i, v
			}
		}
		if worstV < 5 {
			break
		}
		q.Dropped = append(q.Dropped, active[worst])
		active = append(active[:worst], active[worst+1:]...)
	}

	if len(active) == 0 {
		return q
	}
	res, err := md.solve(cols(), yCol)
	if err != nil {
		return q
	}
	q.R2 = res.R2

	ys := md.yNormSum / float64(md.n)
	for i, f := range active {
		q.PValue[f] = res.PValue[i+1]
		if res.PValue[i+1] >= 0.05 {
			continue
		}
		xsc := md.fNormSum[col(f)-1] / float64(md.n)
		if xsc == 0 {
			continue
		}
		q.TimePerUnit[f] = res.Coef[i+1] * ys / xsc
	}

	for _, df := range q.Dropped {
		best, bestCorr := Factor(-1), 0.0
		for _, kf := range active {
			if _, ok := q.TimePerUnit[kf]; !ok {
				continue
			}
			c := md.corr(col(df), col(kf))
			if math.Abs(c) > math.Abs(bestCorr) {
				best, bestCorr = kf, c
			}
		}
		if best >= 0 && math.Abs(bestCorr) > 0.5 {
			xdc := md.fNormSum[col(df)-1] / float64(md.n)
			xkc := md.fNormSum[col(best)-1] / float64(md.n)
			if xdc > 0 {
				q.TimePerUnit[df] = bestCorr * q.TimePerUnit[best] * xkc / xdc
			}
		}
	}
	return q
}

// EstimatedTimeNS returns the OLS-estimated time of factor f for one
// fragment, or (0,false) when the factor was not quantified.
func (q *OLSQuant) EstimatedTimeNS(f Factor, frag *trace.Fragment) (float64, bool) {
	tpu, ok := q.TimePerUnit[f]
	if !ok {
		return 0, false
	}
	return tpu * Metric(f, frag), true
}
