package stats

import (
	"testing"

	"vapro/internal/sim"
)

func TestKSSameDistribution(t *testing.T) {
	rng := sim.NewRNG(1)
	var a, b []float64
	for i := 0; i < 300; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, rng.NormFloat64())
	}
	d, p := KolmogorovSmirnov(a, b)
	if p < 0.05 {
		t.Fatalf("same distribution rejected: D=%v p=%v", d, p)
	}
}

func TestKSShiftedDistribution(t *testing.T) {
	rng := sim.NewRNG(2)
	var a, b []float64
	for i := 0; i < 300; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, rng.NormFloat64()+1)
	}
	d, p := KolmogorovSmirnov(a, b)
	if p > 1e-6 {
		t.Fatalf("unit shift not detected: D=%v p=%v", d, p)
	}
	if d < 0.3 {
		t.Fatalf("D too small for unit shift: %v", d)
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	d, p := KolmogorovSmirnov(xs, xs)
	if d != 0 || p < 0.99 {
		t.Fatalf("identical samples: D=%v p=%v", d, p)
	}
}

func TestKSDegenerate(t *testing.T) {
	if _, p := KolmogorovSmirnov(nil, []float64{1}); p != 1 {
		t.Fatal("empty sample")
	}
}

func TestKSDisjointSamples(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	d, _ := KolmogorovSmirnov(a, b)
	if d != 1 {
		t.Fatalf("disjoint supports must give D=1, got %v", d)
	}
}
