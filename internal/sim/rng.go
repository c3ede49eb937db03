package sim

import "math"

// RNG is a deterministic SplitMix64 pseudo-random number generator.
//
// All randomness in the simulator (PMU jitter, noise event timing,
// workload perturbation) flows from seeded RNG instances so that every
// experiment is reproducible bit-for-bit. SplitMix64 is used because it
// is tiny, fast, has no shared state, and splits cleanly into independent
// streams (one per core, per rank, per noise source).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Split derives an independent generator from r, keyed by id. Streams
// derived with distinct ids are statistically independent of each other
// and of the parent.
func (r *RNG) Split(id uint64) *RNG {
	return NewRNG(r.Uint64() ^ (id+1)*0x9E3779B97F4A7C15)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal deviate using the Box-Muller
// transform. Two uniforms are consumed per call; no state is cached so
// the stream stays splittable.
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Jitter returns a multiplicative factor 1 ± scale drawn from a clamped
// normal distribution, used to model PMU measurement non-determinism.
func (r *RNG) Jitter(scale float64) float64 {
	f := 1 + scale*r.NormFloat64()
	if f < 1-3*scale {
		f = 1 - 3*scale
	}
	if f > 1+3*scale {
		f = 1 + 3*scale
	}
	return f
}
