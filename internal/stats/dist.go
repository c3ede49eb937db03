package stats

import "math"

// Special functions and distribution CDFs, implemented with the
// standard continued-fraction / series expansions (Numerical Recipes
// style). Only the stdlib math package is used.

// logGamma is math.Lgamma without the sign.
func logGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// RegIncGammaP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a), for a > 0, x >= 0.
func RegIncGammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContFrac(a, x)
}

// gammaSeries evaluates P(a,x) by its power series.
func gammaSeries(a, x float64) float64 {
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-logGamma(a))
}

// gammaContFrac evaluates Q(a,x) = 1-P(a,x) by continued fraction.
func gammaContFrac(a, x float64) float64 {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-logGamma(a)) * h
}

// RegIncBeta returns the regularized incomplete beta function
// I_x(a, b), for a, b > 0 and x in [0, 1].
func RegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	bt := math.Exp(logGamma(a+b) - logGamma(a) - logGamma(b) +
		a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return bt * betaContFrac(a, b, x) / a
	}
	return 1 - bt*betaContFrac(b, a, 1-x)/b
}

// betaContFrac is the Lentz continued fraction for the incomplete beta.
func betaContFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m < 500; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

// ChiSquareCDF returns P(X <= x) for a chi-squared distribution with df
// degrees of freedom.
func ChiSquareCDF(x float64, df float64) float64 {
	if x <= 0 {
		return 0
	}
	return RegIncGammaP(df/2, x/2)
}

// ChiSquareSF returns the survival function P(X > x).
func ChiSquareSF(x float64, df float64) float64 { return 1 - ChiSquareCDF(x, df) }

// StudentTSF2 returns the two-sided p-value P(|T| > |t|).
func StudentTSF2(t float64, df float64) float64 {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return 0
	}
	return RegIncBeta(df/2, 0.5, df/(df+t*t))
}
