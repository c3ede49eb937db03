package stats

import (
	"errors"
	"math"
)

// OLSResult is a fitted ordinary-least-squares model y = Xb + e with an
// intercept in position 0.
type OLSResult struct {
	Coef   []float64 // [intercept, b1..bk]
	StdErr []float64 // standard errors of Coef
	TStat  []float64 // t statistics
	PValue []float64 // two-sided p-values
	R2     float64   // coefficient of determination
	AdjR2  float64
	DF     int // residual degrees of freedom
	N      int // observations
}

// ErrDegenerate reports too few observations or a singular design.
var ErrDegenerate = errors.New("stats: degenerate OLS design")

// OLS fits y = b0 + b1*x1 + ... + bk*xk by ordinary least squares.
// xs holds one slice per explanatory variable, each len(y) long.
func OLS(y []float64, xs [][]float64) (*OLSResult, error) {
	n := len(y)
	k := len(xs)
	if n < k+2 {
		return nil, ErrDegenerate
	}
	for _, x := range xs {
		if len(x) != n {
			return nil, ErrDegenerate
		}
	}
	// Design matrix with intercept.
	X := NewMatrix(n, k+1)
	for i := 0; i < n; i++ {
		X.Set(i, 0, 1)
		for j := 0; j < k; j++ {
			X.Set(i, j+1, xs[j][i])
		}
	}
	xt := X.T()
	xtx := xt.Mul(X)
	inv, err := xtx.Inverse()
	if err != nil {
		return nil, ErrDegenerate
	}
	xty := xt.MulVec(y)
	coef := inv.MulVec(xty)

	// Residuals and fit quality.
	fitted := X.MulVec(coef)
	var rss, tss float64
	ym := Mean(y)
	for i := 0; i < n; i++ {
		r := y[i] - fitted[i]
		rss += r * r
		d := y[i] - ym
		tss += d * d
	}
	df := n - (k + 1)
	sigma2 := rss / float64(df)
	res := &OLSResult{
		Coef:   coef,
		StdErr: make([]float64, k+1),
		TStat:  make([]float64, k+1),
		PValue: make([]float64, k+1),
		DF:     df,
		N:      n,
	}
	if tss > 0 {
		res.R2 = 1 - rss/tss
		res.AdjR2 = 1 - (1-res.R2)*float64(n-1)/float64(df)
	}
	for j := 0; j <= k; j++ {
		se := math.Sqrt(sigma2 * inv.At(j, j))
		res.StdErr[j] = se
		if se > 0 {
			res.TStat[j] = coef[j] / se
			res.PValue[j] = StudentTSF2(res.TStat[j], float64(df))
		} else {
			res.TStat[j] = math.Inf(1)
			res.PValue[j] = 0
		}
	}
	return res, nil
}

// SolveMomentOLS fits y = Xb + e from the moment form: n observations,
// k explanatory variables, xtx the (k+1)×(k+1) row-major X'X with the
// intercept in position 0, xty = X'y, yty = y'y. The degeneracy rules,
// standard errors, t statistics and p-values mirror OLS exactly; the
// fit-quality sums are computed from the moments (rss = y'y − b·X'y,
// tss = y'y − n·ȳ²), which is the algebraic identity of the batch
// residual loops.
func SolveMomentOLS(n, k int, xtx, xty []float64, yty float64) (*OLSResult, error) {
	inv, coef, rss, tss, err := momentFit(n, k, xtx, xty, yty)
	if err != nil {
		return nil, err
	}
	d := k + 1
	df := n - d
	sigma2 := rss / float64(df)
	res := &OLSResult{
		Coef:   coef,
		StdErr: make([]float64, d),
		TStat:  make([]float64, d),
		PValue: make([]float64, d),
		DF:     df,
		N:      n,
	}
	if tss > 0 {
		res.R2 = 1 - rss/tss
		res.AdjR2 = 1 - (1-res.R2)*float64(n-1)/float64(df)
	}
	for j := 0; j < d; j++ {
		se := math.Sqrt(sigma2 * inv.At(j, j))
		res.StdErr[j] = se
		if se > 0 {
			res.TStat[j] = coef[j] / se
			res.PValue[j] = StudentTSF2(res.TStat[j], float64(df))
		} else {
			res.TStat[j] = math.Inf(1)
			res.PValue[j] = 0
		}
	}
	return res, nil
}

// MomentR2 is the R² of SolveMomentOLS alone (0 when y does not vary),
// bitwise: the same solve and fit-quality sums, without the standard
// errors and p-values.
func MomentR2(n, k int, xtx, xty []float64, yty float64) (float64, error) {
	_, _, rss, tss, err := momentFit(n, k, xtx, xty, yty)
	if err != nil || tss <= 0 {
		return 0, err
	}
	return 1 - rss/tss, nil
}

// momentFit solves the normal equations of the moment form and returns
// (X'X)⁻¹, the coefficients and the residual and total sums of squares.
func momentFit(n, k int, xtx, xty []float64, yty float64) (inv *Matrix, coef []float64, rss, tss float64, err error) {
	d := k + 1
	if n < k+2 || len(xtx) != d*d || len(xty) != d {
		return nil, nil, 0, 0, ErrDegenerate
	}
	m := NewMatrix(d, d)
	copy(m.Data, xtx)
	if inv, err = m.Inverse(); err != nil {
		return nil, nil, 0, 0, ErrDegenerate
	}
	coef = inv.MulVec(xty)
	rss = yty
	for j := 0; j < d; j++ {
		rss -= coef[j] * xty[j]
	}
	if rss < 0 {
		rss = 0 // reassociation noise on a perfect fit
	}
	ym := xty[0] / float64(n)
	tss = yty - float64(n)*ym*ym
	if tss < 0 {
		tss = 0
	}
	return inv, coef, rss, tss, nil
}

// FarrarGlauber runs the Farrar–Glauber chi-squared test for
// multicollinearity on the explanatory variables: the statistic
//
//	χ² = -(n - 1 - (2k+5)/6) · ln det(R)
//
// with k(k-1)/2 degrees of freedom, where R is the correlation matrix.
// It returns the statistic, the p-value, and whether multicollinearity
// is detected at significance alpha (reject H0 of orthogonality).
func FarrarGlauber(xs [][]float64, alpha float64) (stat, p float64, multicollinear bool) {
	k := len(xs)
	if k < 2 {
		return 0, 1, false
	}
	n := len(xs[0])
	X := NewMatrix(n, k)
	for j, col := range xs {
		for i := 0; i < n; i++ {
			X.Set(i, j, col[i])
		}
	}
	R := CorrMatrix(X)
	det := R.Det()
	if det <= 0 {
		// Perfect collinearity: determinant underflows to <= 0.
		return math.Inf(1), 0, true
	}
	stat = -(float64(n-1) - (2*float64(k)+5)/6) * math.Log(det)
	if stat < 0 {
		stat = 0
	}
	df := float64(k*(k-1)) / 2
	p = ChiSquareSF(stat, df)
	return stat, p, p < alpha
}

// VIF returns the variance inflation factor of each explanatory
// variable: 1/(1-R²_j) from regressing x_j on the others. Infinite VIF
// means perfect collinearity.
func VIF(xs [][]float64) []float64 {
	k := len(xs)
	out := make([]float64, k)
	for j := 0; j < k; j++ {
		others := make([][]float64, 0, k-1)
		for i, x := range xs {
			if i != j {
				others = append(others, x)
			}
		}
		if len(others) == 0 {
			out[j] = 1
			continue
		}
		res, err := OLS(xs[j], others)
		if err != nil {
			out[j] = math.Inf(1)
			continue
		}
		if res.R2 >= 1 {
			out[j] = math.Inf(1)
		} else {
			out[j] = 1 / (1 - res.R2)
		}
	}
	return out
}
