package main

import (
	"fmt"
	"sort"
)

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of an ascending
// slice; 0 for an empty one.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(v []float64) float64 { return middle(sorted(v)) }

// middle is the median of an ascending slice.
func middle(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentiles are the candidates of the reporting rule, ascending.
var tailPercentiles = []float64{90, 99, 99.9, 99.99}

// tailPercentile returns the highest candidate percentile that still has
// at least ten samples beyond it; ok is false below 100 samples, where
// not even p90 does.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if float64(n)*(1-c/100) >= 10-1e-9 {
			p, ok = c, true
		}
	}
	return p, ok
}

// dist is a timing reported by the rule: median, the highest resolvable
// tail, and the sample count.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
	Max   float64 `json:"max"`
	s     []float64
}

func summarize(v []float64) dist {
	s := sorted(v)
	d := dist{N: len(s), s: s}
	if len(s) == 0 {
		return d
	}
	d.P50 = middle(s)
	d.Max = s[len(s)-1]
	if p, ok := tailPercentile(len(s)); ok {
		d.TailP, d.Tail = p, quantile(s, p/100)
	}
	return d
}

// q is a fixed quantile of the distribution (for the named metrics).
func (d dist) q(p float64) float64 { return quantile(d.s, p/100) }

func (d dist) String() string {
	if d.N == 0 {
		return "n=0"
	}
	if d.TailP == 0 {
		return fmt.Sprintf("p50 %.4g  max %.4g  (n=%d)", d.P50, d.Max, d.N)
	}
	return fmt.Sprintf("p50 %.4g  p%g %.4g  max %.4g  (n=%d)", d.P50, d.TailP, d.Tail, d.Max, d.N)
}

func scaleAll(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}

// quartiles returns q1, median, q3 as Python's
// statistics.quantiles(values, n=4) (exclusive method) computes them.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// busyUnion is the total length of the union of [start,end) intervals.
func busyUnion(calls []sinkCall) int64 {
	iv := append([]sinkCall(nil), calls...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, curS, curE int64
	for i, c := range iv {
		if i == 0 || c.Start > curE {
			total += curE - curS
			curS, curE = c.Start, c.End
		} else if c.End > curE {
			curE = c.End
		}
	}
	return total + curE - curS
}
