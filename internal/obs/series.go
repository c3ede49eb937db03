package obs

import "sort"

// Per-metric time-series rings: each health evaluation appends one
// point per metric, and the health rules read rates ("stalls per second
// over the ring's window") and reference quantile histories ("current
// p99 vs the window's median p99") off the rings. Deliberately tiny — a
// fixed ring of (ns, value) points per metric, no downsampling — this
// is a live-status surface, not a TSDB.

// SeriesPoint is one observation.
type SeriesPoint struct {
	NS    int64   `json:"ns"`
	Value float64 `json:"value"`
}

// Series is a fixed-capacity ring of points in observation order.
type Series struct {
	pts  []SeriesPoint
	next int
	n    int
}

// NewSeries returns a ring holding up to capacity points (min 2 — a
// rate needs two).
func NewSeries(capacity int) *Series {
	if capacity < 2 {
		capacity = 2
	}
	return &Series{pts: make([]SeriesPoint, capacity)}
}

// Add appends one point, evicting the oldest at capacity.
func (s *Series) Add(ns int64, v float64) {
	s.pts[s.next] = SeriesPoint{NS: ns, Value: v}
	s.next = (s.next + 1) % len(s.pts)
	if s.n < len(s.pts) {
		s.n++
	}
}

// Len returns the number of points held.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Points returns the held points, oldest first.
func (s *Series) Points() []SeriesPoint {
	if s == nil || s.n == 0 {
		return nil
	}
	out := make([]SeriesPoint, 0, s.n)
	start := (s.next - s.n + len(s.pts)) % len(s.pts)
	for i := 0; i < s.n; i++ {
		out = append(out, s.pts[(start+i)%len(s.pts)])
	}
	return out
}

// Last returns the newest value (0 when empty).
func (s *Series) Last() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return s.pts[(s.next-1+len(s.pts))%len(s.pts)].Value
}

// Rate returns the per-second change between the oldest and newest
// points — the counter rate over the ring's window. 0 with fewer than
// two points or no elapsed time; counter resets (value decreased, e.g.
// a restarted process) report 0 rather than a negative rate.
func (s *Series) Rate() float64 {
	if s == nil || s.n < 2 {
		return 0
	}
	first := s.pts[(s.next-s.n+len(s.pts))%len(s.pts)]
	last := s.pts[(s.next-1+len(s.pts))%len(s.pts)]
	dt := float64(last.NS-first.NS) / 1e9
	if dt <= 0 || last.Value < first.Value {
		return 0
	}
	return (last.Value - first.Value) / dt
}

// Median returns the median of the held values (0 when empty).
func (s *Series) Median() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	vals := make([]float64, 0, s.n)
	for _, p := range s.Points() {
		vals = append(vals, p.Value)
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// histP99Suffix names the derived series a SeriesSet keeps per
// histogram metric alongside the sample-count series.
const histP99Suffix = ":p99"

// SeriesSet maintains one Series per metric name over successive
// snapshots. Histogram metrics get two series: the sample count under
// the metric name, and the snapshot p99 under name+":p99" (what the
// tick-latency health rule compares against its reference window).
type SeriesSet struct {
	capacity int
	m        map[string]*Series
}

// NewSeriesSet builds a set whose rings hold capacity points each.
func NewSeriesSet(capacity int) *SeriesSet {
	return &SeriesSet{capacity: capacity, m: make(map[string]*Series)}
}

// Observe appends one point per metric from the snapshot, stamped ns.
func (ss *SeriesSet) Observe(snap *Snapshot, ns int64) {
	if ss == nil || snap == nil {
		return
	}
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		ss.series(m.Name).Add(ns, m.Value)
		if m.Hist != nil {
			ss.series(m.Name+histP99Suffix).Add(ns, m.Hist.P99)
		}
	}
}

func (ss *SeriesSet) series(name string) *Series {
	s := ss.m[name]
	if s == nil {
		s = NewSeries(ss.capacity)
		ss.m[name] = s
	}
	return s
}

// Get returns the named series (nil when never observed).
func (ss *SeriesSet) Get(name string) *Series {
	if ss == nil {
		return nil
	}
	return ss.m[name]
}
