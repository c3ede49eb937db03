// Package obs is Vapro's self-observability plane: a zero-allocation
// metrics registry (atomic counters, gauges, fixed-bucket latency
// histograms) plus lightweight pipeline span tracing, threaded through
// the collector's hot layers (intake, wire transport, window analysis,
// clustering cache, interposition). The paper's own premise (§2, §6.2)
// is that a production monitor must account for its *own* overhead —
// storage rate, analysis latency, interception cost — so the monitor
// itself must be monitorable, continuously and cheaply.
//
// Design rules:
//
//   - Hot-path operations (Counter.Add, Gauge.Set/SetMax,
//     Histogram.Observe, Spans.RecordNS) perform no allocation — pinned
//     by testing.AllocsPerRun — and use only atomic loads/stores: a span
//     is one histogram observation.
//   - Registration (Registry.Counter, …) allocates and takes locks; it
//     happens once at construction time, never per event.
//   - Reading (Snapshot, the HTTP handler) is a cold path and may
//     allocate freely.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomically updated signed value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Kind classifies a registered metric.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindFunc
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "func"
	}
}

// metric is one registry entry. Exactly one of the value fields is set,
// matching Kind.
type metric struct {
	name, layer, help string
	kind              Kind
	counter           *Counter
	gauge             *Gauge
	hist              *Histogram
	fn                func() float64
}

// Registry holds named metrics for enumeration and serving. Metric
// handles returned by the registration methods are plain atomics: using
// them never touches the registry again.
type Registry struct {
	start time.Time

	mu      sync.Mutex
	metrics []metric
}

// NewRegistry returns an empty registry. Uptime (used by rate
// derivations in `vapro status`) counts from this call.
func NewRegistry() *Registry {
	r := &Registry{start: time.Now()}
	r.Func("vapro_uptime_seconds", "process", "wall seconds since the registry was created",
		func() float64 { return time.Since(r.start).Seconds() })
	return r
}

// Uptime returns the wall time since the registry was created.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// register appends m, replacing any previous metric of the same name
// (re-registration keeps the surface duplicate-free; last writer wins).
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.metrics {
		if r.metrics[i].name == m.name {
			r.metrics[i] = m
			return
		}
	}
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, layer, help string) *Counter {
	c := &Counter{}
	r.register(metric{name: name, layer: layer, help: help, kind: KindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, layer, help string) *Gauge {
	g := &Gauge{}
	r.register(metric{name: name, layer: layer, help: help, kind: KindGauge, gauge: g})
	return g
}

// Histogram registers and returns a histogram over the given bucket
// upper bounds (ascending; an overflow bucket is implicit). A nil or
// empty bounds slice uses LatencyBounds.
func (r *Registry) Histogram(name, layer, help string, bounds []int64) *Histogram {
	h := NewHistogram(bounds)
	r.register(metric{name: name, layer: layer, help: help, kind: KindHistogram, hist: h})
	return h
}

// Func registers a derived metric computed at snapshot time — how
// already-atomic counters owned by other layers (cluster.Cache hits,
// staged-depth sums) surface without double accounting.
func (r *Registry) Func(name, layer, help string, fn func() float64) {
	r.register(metric{name: name, layer: layer, help: help, kind: KindFunc, fn: fn})
}

// MetricSnapshot is one metric's state at snapshot time.
type MetricSnapshot struct {
	Name  string        `json:"name"`
	Layer string        `json:"layer"`
	Help  string        `json:"help,omitempty"`
	Kind  string        `json:"kind"`
	Value float64       `json:"value"`
	Hist  *HistSnapshot `json:"hist,omitempty"`
}

// Snapshot is the full registry state, the JSON surface of the handler.
type Snapshot struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Metrics       []MetricSnapshot `json:"metrics"`
}

// Snapshot captures every registered metric, sorted by (layer, name)
// for a stable rendering order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	snap := Snapshot{UptimeSeconds: time.Since(r.start).Seconds()}
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Layer: m.layer, Help: m.help, Kind: m.kind.String()}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.counter.Load())
		case KindGauge:
			s.Value = float64(m.gauge.Load())
		case KindHistogram:
			h := m.hist.Snapshot()
			s.Hist = &h
			s.Value = float64(h.Total)
		case KindFunc:
			s.Value = m.fn()
		}
		snap.Metrics = append(snap.Metrics, s)
	}
	sort.Slice(snap.Metrics, func(i, j int) bool {
		a, b := &snap.Metrics[i], &snap.Metrics[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		return a.Name < b.Name
	})
	return snap
}

// Get returns the snapshot of one metric by name (nil if absent) — a
// test and tooling convenience.
func (s *Snapshot) Get(name string) *MetricSnapshot {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}
