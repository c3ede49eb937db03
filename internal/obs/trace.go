package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Batch provenance tracing: every wire batch already carries a per-rank
// sequence number; the traced wire variant adds a client id and the
// flush wall time, which together make one batch's journey through the
// pipeline reconstructable — flush, enqueue, spill/redial dwell, wire
// delivery, intake staging, graph drain, first analyzed tick. Tracing
// every batch would cost a ring write per hop per batch, so Trace keeps
// a *sampled exemplar ring*: batches whose sequence number hits the
// sample interval get a Journey slot; everything else pays one atomic
// add and a modulo (Sample, pinned at 0 allocs). The journeys are what
// `vapro status -trace` renders.

// Hop indices of a batch journey, in pipeline order. A hop's value is
// the wall-clock ns when the batch completed that hop (0 = unreached).
const (
	HopFlush   = iota // client flushed the batch (journey origin)
	HopEnqueue        // entered the resilient client's queue
	HopWrite          // written to a live connection (enqueue→write = spill/redial dwell)
	HopDeliver        // decoded by the wire server
	HopStage          // staged into a server's intake stripe
	HopDrain          // merged into the server graph
	HopAnalyze        // first analysis tick that could see the batch
	NumHops
)

// HopNames names the hops in index order (the JSON/render surface).
var HopNames = [NumHops]string{
	"flush", "enqueue", "write", "deliver", "stage", "drain", "analyzed",
}

// TraceKey identifies one batch across processes: the flushing client's
// id plus the batch's per-rank sequence number.
type TraceKey struct {
	ClientID uint64 `json:"client_id"`
	Seq      uint64 `json:"seq"`
}

// Journey is one sampled batch's hop timeline.
type Journey struct {
	Key     TraceKey       `json:"key"`
	Rank    int            `json:"rank"`
	FlushNS int64          `json:"flush_ns"`
	Hops    [NumHops]int64 `json:"hops"` // completion wall ns; 0 = unreached
}

// live reports whether the slot holds a journey.
func (j *Journey) live() bool { return j.Key != (TraceKey{}) || j.FlushNS != 0 || j.Rank != 0 }

// SpanNS returns the journey's total observed latency: last reached hop
// minus the flush time (0 when nothing beyond the origin is known).
func (j *Journey) SpanNS() int64 {
	last := int64(0)
	for _, h := range j.Hops {
		if h > last {
			last = h
		}
	}
	origin := j.FlushNS
	if origin == 0 {
		origin = j.Hops[HopFlush]
	}
	if last == 0 || origin == 0 || last < origin {
		return 0
	}
	return last - origin
}

// defaultTraceInterval samples one batch in 64 per rank.
const defaultTraceInterval = 64

// defaultTraceRing bounds the exemplar journeys kept per process.
const defaultTraceRing = 128

// Trace is the sampled per-process exemplar ring. Sample is the hot
// path (per batch, 0 allocs); Record/MarkDrained/CompleteAnalyze run
// only for sampled batches and take a short mutex.
type Trace struct {
	interval uint64
	total    atomic.Uint64 // trace-stamped batches seen
	sampled  atomic.Uint64

	// now is the timestamp source; deterministic tests inject a fake
	// clock before traffic (SetNow is not safe concurrently with hops).
	now func() int64

	mu      sync.Mutex
	ring    []Journey
	slots   map[TraceKey]int
	next    int
	pending []TraceKey // drained journeys awaiting their first analyze tick
}

// NewTrace builds a tracer sampling every interval-th sequence number
// into a ring of ringSize journeys, and registers its counters on reg
// (nil reg skips registration). interval <= 0 and ringSize <= 0 use the
// defaults.
func NewTrace(reg *Registry, layer string, interval, ringSize int) *Trace {
	if interval <= 0 {
		interval = defaultTraceInterval
	}
	if ringSize <= 0 {
		ringSize = defaultTraceRing
	}
	t := &Trace{
		now:   func() int64 { return time.Now().UnixNano() },
		ring:  make([]Journey, ringSize),
		slots: make(map[TraceKey]int, ringSize),
	}
	t.interval = uint64(interval)
	if reg != nil {
		reg.Func("vapro_trace_batches_total", layer,
			"trace-stamped batches seen by the sampler", func() float64 {
				return float64(t.total.Load())
			})
		reg.Func("vapro_trace_sampled_total", layer,
			"batches sampled into the exemplar journey ring", func() float64 {
				return float64(t.sampled.Load())
			})
		reg.Func("vapro_trace_journeys", layer,
			"exemplar journeys currently held", func() float64 {
				t.mu.Lock()
				defer t.mu.Unlock()
				return float64(len(t.slots))
			})
		reg.Func("vapro_trace_sample_interval", layer,
			"sequence-number sampling interval", func() float64 {
				return float64(t.interval)
			})
	}
	return t
}

// SetNow injects the timestamp source (deterministic tests pass a fake
// clock). Call before any traffic.
func (t *Trace) SetNow(now func() int64) { t.now = now }

// Sample reports whether the batch with this sequence number is an
// exemplar. It is the unsampled-path cost of tracing: one atomic op
// and a modulo, no allocation (pinned by AllocsPerRun), nil-safe.
func (t *Trace) Sample(seq uint64) bool {
	if t == nil {
		return false
	}
	t.total.Add(1)
	if seq%t.interval != 0 {
		return false
	}
	t.sampled.Add(1)
	return true
}

// Record stamps one hop of a sampled batch's journey at the current
// time. The first record for a key claims a ring slot (evicting the
// oldest journey); later hops fill in. A hop already stamped is kept —
// retransmits must not rewrite history.
func (t *Trace) Record(key TraceKey, rank int, flushNS int64, hop int) {
	if t == nil || hop < 0 || hop >= NumHops {
		return
	}
	now := t.now()
	t.mu.Lock()
	j := t.slotLocked(key, rank, flushNS)
	if j.Hops[hop] == 0 {
		j.Hops[hop] = now
	}
	t.mu.Unlock()
}

// slotLocked returns the journey slot for key, claiming one if needed.
// Caller holds t.mu.
func (t *Trace) slotLocked(key TraceKey, rank int, flushNS int64) *Journey {
	idx, ok := t.slots[key]
	if !ok {
		idx = t.next
		t.next = (t.next + 1) % len(t.ring)
		if old := &t.ring[idx]; old.live() {
			delete(t.slots, old.Key)
		}
		t.ring[idx] = Journey{Key: key, Rank: rank, FlushNS: flushNS}
		t.slots[key] = idx
	}
	j := &t.ring[idx]
	if j.FlushNS == 0 && flushNS != 0 {
		j.FlushNS = flushNS
	}
	return j
}

// MarkDrained stamps the drain hop and queues the journey for the next
// analysis tick (CompleteAnalyze stamps HopAnalyze for everything
// drained since the previous tick). The pending list is bounded by the
// ring size — a journey evicted before its tick simply never completes.
func (t *Trace) MarkDrained(key TraceKey, rank int, flushNS int64) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	j := t.slotLocked(key, rank, flushNS)
	if j.Hops[HopDrain] == 0 {
		j.Hops[HopDrain] = now
	}
	if j.Hops[HopAnalyze] == 0 && len(t.pending) < len(t.ring) {
		t.pending = append(t.pending, key)
	}
	t.mu.Unlock()
}

// CompleteAnalyze stamps the first-analyzed-tick hop for every journey
// drained since the last call. The analysis plane calls it after each
// window run.
func (t *Trace) CompleteAnalyze() {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	for _, key := range t.pending {
		if idx, ok := t.slots[key]; ok {
			j := &t.ring[idx]
			if j.Hops[HopAnalyze] == 0 {
				j.Hops[HopAnalyze] = now
			}
		}
	}
	t.pending = t.pending[:0]
	t.mu.Unlock()
}

// TraceSnapshot is the JSON surface of the journey ring.
type TraceSnapshot struct {
	Interval uint64    `json:"interval"`
	Total    uint64    `json:"total"`
	Sampled  uint64    `json:"sampled"`
	HopNames []string  `json:"hop_names"`
	Journeys []Journey `json:"journeys"` // slowest first
}

// Snapshot copies the live journeys, slowest (largest observed span)
// first so the status surface prints the worst recent batch journeys
// without re-sorting.
func (t *Trace) Snapshot() TraceSnapshot {
	s := TraceSnapshot{HopNames: HopNames[:]}
	if t == nil {
		return s
	}
	s.Interval = t.interval
	s.Total = t.total.Load()
	s.Sampled = t.sampled.Load()
	t.mu.Lock()
	for i := range t.ring {
		if t.ring[i].live() {
			s.Journeys = append(s.Journeys, t.ring[i])
		}
	}
	t.mu.Unlock()
	sort.SliceStable(s.Journeys, func(i, j int) bool {
		return s.Journeys[i].SpanNS() > s.Journeys[j].SpanNS()
	})
	return s
}

// MergeTraceSnapshots combines per-plane snapshots into one (the
// sharded tier's /trace view): journeys concatenate and re-sort
// slowest-first, counters sum, and the interval reports the smallest
// non-zero one (the most aggressive sampler).
func MergeTraceSnapshots(snaps []TraceSnapshot) TraceSnapshot {
	out := TraceSnapshot{HopNames: HopNames[:]}
	for _, s := range snaps {
		out.Total += s.Total
		out.Sampled += s.Sampled
		if s.Interval != 0 && (out.Interval == 0 || s.Interval < out.Interval) {
			out.Interval = s.Interval
		}
		out.Journeys = append(out.Journeys, s.Journeys...)
	}
	sort.SliceStable(out.Journeys, func(i, j int) bool {
		return out.Journeys[i].SpanNS() > out.Journeys[j].SpanNS()
	})
	return out
}
