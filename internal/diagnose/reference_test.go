package diagnose

import (
	"math"
	"sort"

	"vapro/internal/stats"
	"vapro/internal/trace"
)

// olsData holds per-cluster-normalized design data for pooled OLS.
type olsData struct {
	y     []float64            // normalized elapsed
	cols  map[Factor][]float64 // normalized factor metrics
	yNorm []float64            // per-observation y scale (max-min, ns)
	fNorm map[Factor][]float64 // per-observation factor scale
}

// buildOLSData normalizes every factor and the elapsed time to [0,1]
// within each cluster (as §4.2 prescribes) and pools the observations.
func buildOLSData(clusters [][]trace.Fragment, factors []Factor) *olsData {
	d := &olsData{
		cols:  make(map[Factor][]float64),
		fNorm: make(map[Factor][]float64),
	}
	for _, f := range factors {
		d.cols[f] = nil
		d.fNorm[f] = nil
	}
	for _, frags := range clusters {
		if len(frags) < 3 {
			continue
		}
		// Elapsed normalization range.
		lo, hi := math.MaxFloat64, -math.MaxFloat64
		for i := range frags {
			e := float64(frags[i].Elapsed)
			lo = math.Min(lo, e)
			hi = math.Max(hi, e)
		}
		ySpan := hi - lo
		if ySpan <= 0 {
			ySpan = 1
		}
		// Factor ranges.
		type rng struct{ lo, hi float64 }
		franges := make(map[Factor]rng, len(factors))
		for _, f := range factors {
			r := rng{math.MaxFloat64, -math.MaxFloat64}
			for i := range frags {
				v := Metric(f, &frags[i])
				r.lo = math.Min(r.lo, v)
				r.hi = math.Max(r.hi, v)
			}
			franges[f] = r
		}
		for i := range frags {
			d.y = append(d.y, (float64(frags[i].Elapsed)-lo)/ySpan)
			d.yNorm = append(d.yNorm, ySpan)
			for _, f := range factors {
				r := franges[f]
				span := r.hi - r.lo
				if span <= 0 {
					span = 1
				}
				d.cols[f] = append(d.cols[f], (Metric(f, &frags[i])-r.lo)/span)
				d.fNorm[f] = append(d.fNorm[f], span)
			}
		}
	}
	return d
}

// constant reports whether a column has (numerically) no variation.
func constant(xs []float64) bool {
	if len(xs) == 0 {
		return true
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return hi-lo < 1e-9
}

// quantifyDesign is the §4.2 statistical method on the flat
// per-fragment design: normalize per cluster, remove multicollinear
// factors one by one (highest VIF first) until the Farrar–Glauber test
// passes, fit OLS, keep significant factors (p < 0.05), rescale
// coefficients back to time units, and estimate dropped factors through
// their relationship with the kept ones. It is the reference the moment
// solve (QuantifyMoments) is pinned to; under exact collinearity its
// VIF rule leaves the drop order to rounding, so the equivalence fuzz
// feeds it full-rank designs only.
func quantifyDesign(clusters [][]trace.Fragment, factors []Factor) *OLSQuant {
	q := &OLSQuant{
		TimePerUnit: make(map[Factor]float64),
		PValue:      make(map[Factor]float64),
	}
	d := buildOLSData(clusters, factors)
	if len(d.y) < len(factors)+3 {
		return q
	}

	// Discard constant columns outright (no information).
	active := make([]Factor, 0, len(factors))
	for _, f := range factors {
		if !constant(d.cols[f]) {
			active = append(active, f)
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })

	// Farrar–Glauber screen: drop the highest-VIF factor until the
	// test stops rejecting orthogonality (or too few remain).
	for len(active) >= 2 {
		xs := make([][]float64, len(active))
		for i, f := range active {
			xs[i] = d.cols[f]
		}
		stat, p, multi := stats.FarrarGlauber(xs, 0.05)
		q.FGStat, q.FGPValue = stat, p
		if !multi {
			break
		}
		vifs := stats.VIF(xs)
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
		// Only drop while actual inflation exists; FG can reject with
		// mild correlation that OLS tolerates.
		if worstV < 5 {
			break
		}
		q.Dropped = append(q.Dropped, active[worst])
		active = append(active[:worst], active[worst+1:]...)
	}

	if len(active) == 0 {
		return q
	}
	xs := make([][]float64, len(active))
	for i, f := range active {
		xs[i] = d.cols[f]
	}
	res, err := stats.OLS(d.y, xs)
	if err != nil {
		return q
	}
	q.R2 = res.R2

	// Rescale: coefficient b_f is in (normalized-y per normalized-x);
	// time per unit = b_f * yScale / xScale, using the mean scales.
	for i, f := range active {
		q.PValue[f] = res.PValue[i+1]
		if res.PValue[i+1] >= 0.05 {
			continue
		}
		ys := stats.Mean(d.yNorm)
		xsc := stats.Mean(d.fNorm[f])
		if xsc == 0 {
			continue
		}
		q.TimePerUnit[f] = res.Coef[i+1] * ys / xsc
	}

	// Dropped factors: estimate through their multicollinear
	// relationship with the kept significant factors (§4.2).
	for _, df := range q.Dropped {
		best, bestCorr := Factor(-1), 0.0
		for _, kf := range active {
			if _, ok := q.TimePerUnit[kf]; !ok {
				continue
			}
			c := stats.Corr(d.cols[df], d.cols[kf])
			if math.Abs(c) > math.Abs(bestCorr) {
				best, bestCorr = kf, c
			}
		}
		if best >= 0 && math.Abs(bestCorr) > 0.5 {
			// x_d ≈ a·x_k ⇒ time-per-unit_d ≈ corr · tpu_k · scale ratio.
			xdc := stats.Mean(d.fNorm[df])
			xkc := stats.Mean(d.fNorm[best])
			if xdc > 0 {
				q.TimePerUnit[df] = bestCorr * q.TimePerUnit[best] * xkc / xdc
			}
		}
	}
	return q
}
