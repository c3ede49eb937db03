package obs

import "sync/atomic"

// Histogram is a fixed-bucket histogram with atomic counters. Bucket i
// counts observations v with bounds[i-1] < v <= bounds[i] (bucket 0
// starts at -inf); one extra overflow bucket counts v > bounds[last].
// Observe is allocation-free and safe for concurrent use; quantiles are
// derived at snapshot time by linear interpolation within a bucket.
type Histogram struct {
	bounds []int64 // ascending upper bounds, immutable after creation
	counts []atomic.Uint64
	sum    atomic.Int64
}

// LatencyBounds is the default nanosecond ladder: 1 µs to ~16.8 s in
// powers of two (25 buckets). Wide enough for per-window analysis
// latencies and per-stage spans at any problem size.
func LatencyBounds() []int64 {
	b := make([]int64, 25)
	v := int64(1000)
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// CountBounds is a ladder for small cardinalities (batch sizes, drain
// sweeps): 1 to 65536 in powers of two.
func CountBounds() []int64 {
	b := make([]int64, 17)
	v := int64(1)
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// NewHistogram builds a histogram over the given ascending upper
// bounds; nil or empty means LatencyBounds.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBounds()
	}
	cp := make([]int64, len(bounds))
	copy(cp, bounds)
	return &Histogram{bounds: cp, counts: make([]atomic.Uint64, len(cp)+1)}
}

// Observe records one value. Zero allocations: a hand-rolled binary
// search (no closure) plus one atomic add.
func (h *Histogram) Observe(v int64) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a consistent-enough copy of a histogram (buckets are
// read individually; a snapshot taken mid-Observe may be off by the
// in-flight observation, which is fine for telemetry).
type HistSnapshot struct {
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"` // len(Bounds)+1; last is overflow
	Sum    int64    `json:"sum"`
	Total  uint64   `json:"total"`
	P50    float64  `json:"p50"`
	P90    float64  `json:"p90"`
	P99    float64  `json:"p99"`
	Mean   float64  `json:"mean"`
}

// Snapshot copies the bucket counts and derives the standard quantiles.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Total += s.Counts[i]
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	if s.Total > 0 {
		s.Mean = float64(s.Sum) / float64(s.Total)
	}
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket holding rank q·Total. Bucket i spans
// (Bounds[i-1], Bounds[i]] with bucket 0 starting at 0; the overflow
// bucket has no upper bound, so any rank landing there reports the last
// finite bound (a floor, not an estimate).
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Total == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			if i >= len(s.Bounds) { // overflow bucket
				return float64(s.Bounds[len(s.Bounds)-1])
			}
			lo := float64(0)
			if i > 0 {
				lo = float64(s.Bounds[i-1])
			}
			hi := float64(s.Bounds[i])
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}
