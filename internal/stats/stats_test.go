package stats

import (
	"math"
	"testing"
	"testing/quick"

	"vapro/internal/sim"
)

func TestMatrixMul(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrix(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := a.Mul(b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if math.Abs(c.Data[i]-v) > 1e-12 {
			t.Fatalf("mul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatrixInverse(t *testing.T) {
	a := NewMatrix(3, 3)
	copy(a.Data, []float64{4, 7, 2, 3, 6, 1, 2, 5, 3})
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	prod := a.Mul(inv)
	id := Identity(3)
	for i := range prod.Data {
		if math.Abs(prod.Data[i]-id.Data[i]) > 1e-9 {
			t.Fatalf("A·A⁻¹ ≠ I at %d: %v", i, prod.Data[i])
		}
	}
}

func TestSingularInverse(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := a.Inverse(); err != ErrSingular {
		t.Fatalf("singular inverse err = %v", err)
	}
	if d := a.Det(); d != 0 {
		t.Fatalf("singular det = %v", d)
	}
}

func TestDetKnown(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{3, 8, 4, 6})
	if d := a.Det(); math.Abs(d-(-14)) > 1e-12 {
		t.Fatalf("det = %v, want -14", d)
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Fatalf("variance %v", v)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestCorr(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if c := Corr(xs, ys); math.Abs(c-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", c)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if c := Corr(xs, neg); math.Abs(c+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", c)
	}
	if c := Corr(xs, []float64{1, 1, 1, 1, 1}); c != 0 {
		t.Fatalf("constant series correlation = %v", c)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if p := Percentile(xs, 50); p != 3 {
		t.Fatalf("median %v", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 %v", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Fatalf("p100 %v", p)
	}
	if p := Percentile(xs, 25); p != 2 {
		t.Fatalf("p25 %v", p)
	}
}

// Distribution CDFs against reference values (R/scipy).
func TestChiSquareCDF(t *testing.T) {
	cases := []struct{ x, df, want float64 }{
		{3.841, 1, 0.950},
		{5.991, 2, 0.950},
		{18.307, 10, 0.950},
		{2.706, 1, 0.900},
	}
	for _, c := range cases {
		if got := ChiSquareCDF(c.x, c.df); math.Abs(got-c.want) > 0.001 {
			t.Fatalf("chi2(%v, %v) = %v, want %v", c.x, c.df, got, c.want)
		}
	}
	if ChiSquareCDF(-1, 1) != 0 {
		t.Fatal("negative x")
	}
}

func TestStudentT(t *testing.T) {
	// Two-sided p-values at tabulated critical values.
	cases := []struct{ tv, df, want float64 }{
		{2.228, 10, 0.05},
		{1.812, 10, 0.10},
		{12.706, 1, 0.05},
		{0, 5, 1},
	}
	for _, c := range cases {
		if got := StudentTSF2(c.tv, c.df); math.Abs(got-c.want) > 0.002 {
			t.Fatalf("two-sided p(%v, %v) = %v, want %v", c.tv, c.df, got, c.want)
		}
	}
	// Symmetry.
	if a, b := StudentTSF2(-1.5, 7), StudentTSF2(1.5, 7); a != b {
		t.Fatalf("t symmetry: %v vs %v", a, b)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Fatal("beta bounds")
	}
	// I_x(1,1) = x.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-9 {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
}

func TestRegIncGammaBounds(t *testing.T) {
	if RegIncGammaP(2, 0) != 0 {
		t.Fatal("gamma at 0")
	}
	// P(1, x) = 1 - e^-x.
	for _, x := range []float64{0.5, 1, 3} {
		want := 1 - math.Exp(-x)
		if got := RegIncGammaP(1, x); math.Abs(got-want) > 1e-9 {
			t.Fatalf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
}

// OLS recovers known coefficients from noisy data.
func TestOLSRecovery(t *testing.T) {
	rng := sim.NewRNG(4)
	n := 500
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = rng.Float64() * 10
		x2[i] = rng.Float64() * 5
		y[i] = 3 + 2*x1[i] - 1.5*x2[i] + 0.1*rng.NormFloat64()
	}
	res, err := OLS(y, [][]float64{x1, x2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1.5}
	for i, c := range want {
		if math.Abs(res.Coef[i]-c) > 0.05 {
			t.Fatalf("coef[%d] = %v, want %v", i, res.Coef[i], c)
		}
		if res.PValue[i] > 1e-6 {
			t.Fatalf("true coefficient not significant: p=%v", res.PValue[i])
		}
	}
	if res.R2 < 0.99 {
		t.Fatalf("R² = %v", res.R2)
	}
}

func TestOLSInsignificantNoise(t *testing.T) {
	rng := sim.NewRNG(5)
	n := 300
	x := make([]float64, n)
	junk := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Float64()
		junk[i] = rng.Float64() // unrelated to y
		y[i] = 5*x[i] + 0.5*rng.NormFloat64()
	}
	res, err := OLS(y, [][]float64{x, junk})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue[2] < 0.01 {
		t.Fatalf("junk variable significant: p=%v", res.PValue[2])
	}
}

func TestOLSDegenerate(t *testing.T) {
	if _, err := OLS([]float64{1, 2}, [][]float64{{1, 2}}); err != ErrDegenerate {
		t.Fatalf("short input err = %v", err)
	}
	if _, err := OLS([]float64{1, 2, 3}, [][]float64{{1, 2}}); err != ErrDegenerate {
		t.Fatalf("ragged input err = %v", err)
	}
}

// Farrar–Glauber flags collinear designs and passes orthogonal ones.
func TestFarrarGlauber(t *testing.T) {
	rng := sim.NewRNG(6)
	n := 200
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
		c[i] = a[i]*2 + 0.01*rng.NormFloat64() // collinear with a
	}
	_, _, multi := FarrarGlauber([][]float64{a, b, c}, 0.05)
	if !multi {
		t.Fatal("collinear design not flagged")
	}
	_, p, multi := FarrarGlauber([][]float64{a, b}, 0.05)
	if multi {
		t.Fatalf("orthogonal design flagged (p=%v)", p)
	}
}

func TestVIF(t *testing.T) {
	rng := sim.NewRNG(7)
	n := 200
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
		c[i] = a[i] + 0.02*rng.NormFloat64()
	}
	v := VIF([][]float64{a, b, c})
	if v[0] < 5 || v[2] < 5 {
		t.Fatalf("collinear pair VIFs too low: %v", v)
	}
	if v[1] > 2 {
		t.Fatalf("independent variable inflated: %v", v[1])
	}
}

// V-measure sanity on hand-built clusterings.
func TestVMeasure(t *testing.T) {
	// Perfect clustering.
	h, c, v := VMeasure([]int{0, 0, 1, 1}, []int{5, 5, 9, 9})
	if h != 1 || c != 1 || v != 1 {
		t.Fatalf("perfect clustering: h=%v c=%v v=%v", h, c, v)
	}
	// Two classes merged into one cluster: complete but not homogeneous.
	h, c, _ = VMeasure([]int{0, 0, 1, 1}, []int{3, 3, 3, 3})
	if c != 1 {
		t.Fatalf("merged clustering completeness = %v", c)
	}
	if h != 0 {
		t.Fatalf("merged clustering homogeneity = %v", h)
	}
	// One class split into two clusters: homogeneous but incomplete.
	h, c, _ = VMeasure([]int{0, 0, 0, 0}, []int{1, 1, 2, 2})
	if h != 1 {
		t.Fatalf("split clustering homogeneity = %v", h)
	}
	if c != 0 {
		t.Fatalf("split clustering completeness = %v", c)
	}
	// Degenerate inputs.
	if h, c, v := VMeasure(nil, nil); h != 0 || c != 0 || v != 0 {
		t.Fatal("nil inputs")
	}
}

// Property: CDFs are monotone non-decreasing in x (survival functions
// non-increasing).
func TestCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		x1 := math.Abs(math.Mod(a, 20))
		x2 := math.Abs(math.Mod(b, 20))
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return ChiSquareCDF(x1, 4) <= ChiSquareCDF(x2, 4)+1e-12 &&
			StudentTSF2(x1, 7)+1e-12 >= StudentTSF2(x2, 7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
