package stats

import (
	"math"
	"sort"
)

// KolmogorovSmirnov runs the two-sample Kolmogorov–Smirnov test: D is
// the maximum distance between the empirical CDFs of xs and ys, and P
// approximates the probability of a D at least this large under the
// null hypothesis that both samples come from one distribution
// (asymptotic Kolmogorov distribution with the standard small-sample
// correction). Used to attest distribution shifts such as the
// huge-page mitigation in Figure 16.
func KolmogorovSmirnov(xs, ys []float64) (d, p float64) {
	n, m := len(xs), len(ys)
	if n == 0 || m == 0 {
		return 0, 1
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)

	var i, j int
	for i < n && j < m {
		v := math.Min(a[i], b[j])
		for i < n && a[i] <= v {
			i++
		}
		for j < m && b[j] <= v {
			j++
		}
		diff := math.Abs(float64(i)/float64(n) - float64(j)/float64(m))
		if diff > d {
			d = diff
		}
	}

	ne := float64(n) * float64(m) / float64(n+m)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	p = ksQ(lambda)
	return d, p
}

// ksQ is the Kolmogorov distribution's survival function
// Q(λ) = 2 Σ (-1)^(k-1) exp(-2 k² λ²).
func ksQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k)*float64(k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	q := 2 * sum
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}
