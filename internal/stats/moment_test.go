package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// TestStreamOLSMatchesBatchFuzz pins the moment-form solver to the batch
// OLS within 1e-9 relative tolerance across random designs: X'X, X'y
// and y'y accumulated row by row (as streaming moments grow), then
// SolveMomentOLS must give the same coefficients, errors, t stats,
// p-values and fit quality, and the same degeneracy verdicts.
func TestStreamOLSMatchesBatchFuzz(t *testing.T) {
	const tol = 1e-9
	for sched := 0; sched < 200; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("sched%03d", sched), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(4100 + sched)))
			k := 1 + rng.Intn(5)
			n := k + 2 + rng.Intn(60)
			if sched%7 == 0 {
				n = k + rng.Intn(2) // degenerate: too few observations
			}
			xs := make([][]float64, k)
			for j := range xs {
				xs[j] = make([]float64, n)
				for i := 0; i < n; i++ {
					xs[j][i] = rng.NormFloat64() * float64(1+rng.Intn(5))
				}
			}
			if sched%11 == 0 && k >= 2 {
				copy(xs[1], xs[0]) // singular design
			}
			y := make([]float64, n)
			for i := 0; i < n; i++ {
				y[i] = 2.5
				for j := range xs {
					y[i] += float64(j+1) * xs[j][i]
				}
				y[i] += rng.NormFloat64() * 0.3
			}

			want, werr := OLS(y, xs)
			d := k + 1
			xtx, xty, yty := make([]float64, d*d), make([]float64, d), 0.0
			row := make([]float64, d)
			row[0] = 1 // the intercept
			for i := 0; i < n; i++ {
				for j := range xs {
					row[j+1] = xs[j][i]
				}
				for a := 0; a < d; a++ {
					for b := 0; b < d; b++ {
						xtx[a*d+b] += row[a] * row[b]
					}
					xty[a] += row[a] * y[i]
				}
				yty += y[i] * y[i]
			}
			got, gerr := SolveMomentOLS(n, k, xtx, xty, yty)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("degeneracy verdicts differ: batch %v, stream %v", werr, gerr)
			}
			if werr != nil {
				return
			}
			if got.N != want.N || got.DF != want.DF {
				t.Fatalf("N/DF differ: (%d,%d) vs (%d,%d)", got.N, got.DF, want.N, want.DF)
			}
			for j := range want.Coef {
				if !relClose(got.Coef[j], want.Coef[j], tol) {
					t.Fatalf("coef[%d]: %v vs %v", j, got.Coef[j], want.Coef[j])
				}
				if !relClose(got.StdErr[j], want.StdErr[j], tol) {
					t.Fatalf("stderr[%d]: %v vs %v", j, got.StdErr[j], want.StdErr[j])
				}
				if !relClose(got.TStat[j], want.TStat[j], tol) {
					t.Fatalf("tstat[%d]: %v vs %v", j, got.TStat[j], want.TStat[j])
				}
				if !relClose(got.PValue[j], want.PValue[j], 1e-8) {
					t.Fatalf("pvalue[%d]: %v vs %v", j, got.PValue[j], want.PValue[j])
				}
			}
			if !relClose(got.R2, want.R2, 1e-8) || !relClose(got.AdjR2, want.AdjR2, 1e-8) {
				t.Fatalf("fit quality differs: R2 %v vs %v", got.R2, want.R2)
			}
			// MomentR2 is SolveMomentOLS's R² bit for bit.
			if r2, err := MomentR2(n, k, xtx, xty, yty); err != nil || math.Float64bits(r2) != math.Float64bits(got.R2) {
				t.Fatalf("MomentR2 %v (err %v), SolveMomentOLS R2 %v", r2, err, got.R2)
			}
		})
	}
}
