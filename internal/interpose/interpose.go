// Package interpose is Vapro's data-collection layer: the simulated
// equivalent of the LD_PRELOAD/dlsym shim described in §5 of the paper.
// It implements the same rt.Runtime interface the plain runtime does,
// but on every external invocation it
//
//  1. closes the pending computation fragment (everything since the
//     previous interception) and attaches it to the STG edge between the
//     previous and current states,
//  2. executes the real operation through the substrate,
//  3. records a communication/IO fragment with the invocation arguments
//     on the current state's STG vertex, and
//  4. charges the interception's own cost into the rank's virtual clock,
//     which is how the tool's runtime overhead (Table 1) arises.
//
// Call-sites are captured with runtime.Caller — the in-process analogue
// of the return address a real PMPI wrapper sees — and call-paths with
// runtime.Callers, whose extra backtracing cost is exactly why the
// paper's context-aware mode is more expensive than context-free.
package interpose

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"vapro/internal/mpi"
	"vapro/internal/obs"
	"vapro/internal/rt"
	"vapro/internal/sim"
	"vapro/internal/trace"
	"vapro/internal/vfs"
)

// errNoFS is returned by IO operations when no file system was
// configured for the traced rank.
var errNoFS = errors.New("interpose: no file system configured")

// Mode selects how running states are derived (§3.2).
type Mode int

const (
	// ContextFree keys states by call-site only.
	ContextFree Mode = iota
	// ContextAware keys states by the full call path.
	ContextAware
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ContextAware {
		return "context-aware"
	}
	return "context-free"
}

// Sink consumes fragment batches from traced ranks. Implementations
// must be safe for concurrent use by all ranks, and must not retain
// frags (or any slice of it) after Consume returns: the caller reuses
// the backing array for its next batch — a rank's client buffer, a wire
// connection's decode buffer, a journal replay's. A sink that keeps
// fragments copies them first (the collector's servers copy once into
// their staging area).
type Sink interface {
	Consume(rank int, frags []trace.Fragment)
}

// Options configures the interposition layer.
type Options struct {
	Mode Mode
	// FlushEvery is the client buffer size before a batch is pushed to
	// the sink.
	FlushEvery int
	// BackoffThreshold: probes arriving more often than this are
	// sampled with binary exponential backoff (§5).
	BackoffThreshold sim.Duration
	// SampleShortOps, when > 0, records only one in `stride` external
	// invocations shorter than this (the §3.5 sampling knob); stride
	// adapts with the same backoff policy.
	SampleShortOps sim.Duration

	// Interception cost model, charged into virtual time.
	CostPerEvent    sim.Duration // bookkeeping per interception (context-free)
	CostBacktrace   sim.Duration // extra per interception in context-aware mode
	CostCounterRead sim.Duration // per PMU counter-group read
}

// DefaultOptions returns the configuration used in the evaluation.
func DefaultOptions() Options {
	return Options{
		Mode:             ContextFree,
		FlushEvery:       256,
		BackoffThreshold: 200 * sim.Microsecond,
		CostPerEvent:     5000 * sim.Nanosecond,
		CostBacktrace:    8000 * sim.Nanosecond,
		CostCounterRead:  600 * sim.Nanosecond,
	}
}

// Armed is a shared, atomically updated counter-group selection. The
// server flips groups during progressive diagnosis; every traced rank
// reads it at each fragment boundary.
type Armed struct{ v atomic.Uint32 }

// NewArmed starts with the given groups armed.
func NewArmed(g sim.Group) *Armed {
	a := &Armed{}
	a.Set(g)
	return a
}

// Set replaces the armed groups.
func (a *Armed) Set(g sim.Group) { a.v.Store(uint32(g)) }

// Get returns the armed groups.
func (a *Armed) Get() sim.Group {
	g := sim.Group(a.v.Load())
	if g == 0 {
		g = sim.GroupBase | sim.GroupTopdownL1
	}
	return g
}

// Traced is the instrumented runtime for one rank.
type Traced struct {
	r    *mpi.Rank
	fs   *vfs.FS
	buf  *vfs.Buffer
	opt  Options
	sink Sink
	arm  *Armed

	files  map[int]*vfs.File
	nextFD int

	// Fragment assembly state.
	prevState     uint64       // STG state at the previous interception's exit
	segStart      sim.Time     // virtual time of the previous interception's exit
	pending       sim.Counters // accumulated compute counters since then
	pendingStatic bool         // all compute calls so far had StaticFixed workloads
	pendingAny    bool         // any compute call happened in the segment
	pendingTruth  uint64       // ground-truth workload hash of the segment
	batch         []trace.Fragment
	backoff       map[string]*backoffState
	opStride      map[trace.Site]*backoffState
	siteOfState   map[uint64]string

	// skipping marks the current invocation as sampled out: the op
	// still runs, but no fragments are cut around it.
	skipping bool

	// Statistics for overhead/coverage accounting.
	Events  int
	Dropped int

	// met, when set, receives deltas of the stats above at each Flush;
	// pushed are the previously unreported amounts, so shared counters
	// are touched once per batch instead of once per interception.
	met          *Metrics
	pushedEvents int
	pushedDrops  int
}

// Metrics is the client layer's shared observability surface — one set
// of counters aggregated across every traced rank feeding a collector.
type Metrics struct {
	// Interceptions counts recorded external invocations (Events).
	Interceptions *obs.Counter
	// Fragments counts fragments shipped to the sink.
	Fragments *obs.Counter
	// Dropped counts invocations sampled out by short-op backoff.
	Dropped *obs.Counter
	// Flushes counts client batch flushes.
	Flushes *obs.Counter
}

// NewMetrics registers the client-layer metrics into reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Interceptions: reg.Counter("vapro_client_interceptions_total", "client",
			"recorded external invocations across all traced ranks"),
		Fragments: reg.Counter("vapro_client_fragments_total", "client",
			"fragments shipped by traced ranks"),
		Dropped: reg.Counter("vapro_client_dropped_total", "client",
			"invocations sampled out by short-op backoff"),
		Flushes: reg.Counter("vapro_client_flushes_total", "client",
			"client batch flushes"),
	}
}

// SetMetrics attaches the shared client metrics to this rank; nil
// detaches. Deltas accumulated before attachment are reported at the
// next Flush.
func (t *Traced) SetMetrics(m *Metrics) { t.met = m }

type backoffState struct {
	stride int
	count  int
}

// NewTraced instruments rank r. cfg supplies the FS; sink receives the
// fragment stream (it may be nil to record nothing, which is how pure
// overhead is measured); arm selects counter groups and may be shared
// across ranks.
func NewTraced(r *mpi.Rank, cfg rt.Config, opt Options, sink Sink, arm *Armed) *Traced {
	if opt.FlushEvery <= 0 {
		opt.FlushEvery = 256
	}
	t := &Traced{
		r:           r,
		fs:          cfg.FS,
		opt:         opt,
		sink:        sink,
		arm:         arm,
		files:       make(map[int]*vfs.File),
		backoff:     make(map[string]*backoffState),
		opStride:    make(map[trace.Site]*backoffState),
		siteOfState: make(map[uint64]string),
		prevState:   trace.EntryState.Key,
	}
	t.pendingStatic = true
	if cfg.BufferedIO && cfg.FS != nil {
		t.buf = vfs.NewBuffer(cfg.FS)
	}
	if t.arm == nil {
		t.arm = NewArmed(sim.GroupBase | sim.GroupTopdownL1 | sim.GroupOS)
	}
	return t
}

// callSite captures the application call-site `skip` frames up.
func callSite(skip int) trace.Site {
	_, file, line, ok := runtime.Caller(skip + 1)
	if !ok {
		return "<unknown>"
	}
	return trace.Site(fmt.Sprintf("%s:%d", filepath.Base(file), line))
}

// state derives the current running state per the configured mode.
// The context-aware path walks the goroutine stack (runtime.Callers),
// which is the costly backtrace the paper measures.
func (t *Traced) state(skip int) trace.State {
	site := callSite(skip + 1)
	if t.opt.Mode == ContextFree {
		return trace.SiteState(site)
	}
	var pcs [24]uintptr
	n := runtime.Callers(skip+2, pcs[:])
	path := make([]trace.Site, 0, n)
	frames := runtime.CallersFrames(pcs[:n])
	for {
		fr, more := frames.Next()
		path = append(path, trace.Site(fmt.Sprintf("%s:%d", filepath.Base(fr.File), fr.Line)))
		if !more {
			break
		}
	}
	return trace.PathState(site, path)
}

// interceptCost charges the per-event virtual cost of the shim.
func (t *Traced) interceptCost() {
	c := t.opt.CostPerEvent
	if t.opt.Mode == ContextAware {
		c += t.opt.CostBacktrace
	}
	c += sim.Duration(t.arm.Get().Count()) * t.opt.CostCounterRead
	t.r.Advance(c)
}

// shouldRecord consults the per-site sampling state (§3.5): when
// short-op sampling is on and the site's recent invocations were
// shorter than the threshold, only one in `stride` invocations is
// recorded; the rest run without fragment boundaries (their time merges
// into the surrounding computation segment) at negligible cost, which
// is where the overhead saving comes from.
func (t *Traced) shouldRecord(st trace.State) bool {
	if t.opt.SampleShortOps <= 0 {
		return true
	}
	bs := t.opStride[trace.Site(st.Name)]
	if bs == nil {
		bs = &backoffState{stride: 1}
		t.opStride[trace.Site(st.Name)] = bs
	}
	bs.count++
	if bs.count%bs.stride != 0 {
		t.Dropped++
		return false
	}
	return true
}

// adaptStride updates a site's sampling stride from the elapsed time of
// a recorded invocation (binary exponential backoff for short ops).
func (t *Traced) adaptStride(st trace.State, elapsed sim.Duration) {
	if t.opt.SampleShortOps <= 0 {
		return
	}
	bs := t.opStride[trace.Site(st.Name)]
	if bs == nil {
		return
	}
	if elapsed < t.opt.SampleShortOps {
		// Cap the stride so even heavily sampled sites keep enough
		// fragments per window for clustering (the coverage side of
		// the §3.5 trade-off).
		if bs.stride < 1<<5 {
			bs.stride *= 2
		}
	} else if bs.stride > 1 {
		bs.stride /= 2
	}
}

// beginExternal closes the pending computation fragment at the entry of
// an external invocation into state st, and returns the entry time.
// When the site's sampling state says to skip, the invocation runs
// without fragment boundaries at negligible cost (its time merges into
// the open computation segment).
func (t *Traced) beginExternal(st trace.State) sim.Time {
	if !t.shouldRecord(st) {
		t.skipping = true
		t.r.Advance(50 * sim.Nanosecond)
		return t.r.Clock()
	}
	t.Events++
	t.interceptCost()
	now := t.r.Clock()
	elapsed := now.Sub(t.segStart)
	if elapsed > 0 || t.pending.TotIns > 0 {
		// Fragments carry the full counter snapshot; masking to the
		// armed groups happens at the analysis boundary (each stage
		// of diagnose.Diagnoser.Run), which lets the progressive
		// controller replay later stages from recorded data. The
		// armed handle still drives the per-event cost model: a
		// client pays for each group it keeps enabled.
		t.emit(trace.Fragment{
			Rank:     t.r.ID(),
			Kind:     trace.Comp,
			From:     t.prevState,
			State:    st.Key,
			Start:    int64(t.segStart),
			Elapsed:  int64(elapsed),
			Counters: view(t.pending),
			Static:   t.pendingAny && t.pendingStatic,
			Truth:    t.pendingTruth,
		})
	}
	t.pending = sim.Counters{}
	t.pendingStatic = true
	t.pendingAny = false
	t.pendingTruth = 0
	t.siteOfState[st.Key] = st.Name
	return now
}

// endExternal records the invocation's own fragment and re-opens the
// computation segment from here.
func (t *Traced) endExternal(st trace.State, kind trace.Kind, entry sim.Time, args trace.Args) {
	now := t.r.Clock()
	elapsed := now.Sub(entry)
	if t.skipping {
		// Sampled out: no fragment, no state transition; the stride
		// still adapts so a site that turns slow is re-sampled soon.
		t.skipping = false
		t.adaptStride(st, elapsed)
		return
	}
	t.adaptStride(st, elapsed)
	t.emit(trace.Fragment{
		Rank:    t.r.ID(),
		Kind:    kind,
		From:    t.prevState,
		State:   st.Key,
		Start:   int64(entry),
		Elapsed: int64(elapsed),
		Args:    args,
	})
	t.prevState = st.Key
	t.segStart = now
}

func view(c sim.Counters) trace.CountersView {
	return trace.CountersView{
		TotIns:        c.TotIns,
		Cycles:        c.Cycles,
		SlotsFrontend: c.SlotsFrontend,
		SlotsBadSpec:  c.SlotsBadSpec,
		SlotsRetiring: c.SlotsRetiring,
		SlotsBackend:  c.SlotsBackend,
		SlotsCore:     c.SlotsCore,
		SlotsMemory:   c.SlotsMemory,
		SlotsL1:       c.SlotsL1,
		SlotsL2:       c.SlotsL2,
		SlotsL3:       c.SlotsL3,
		SlotsDRAM:     c.SlotsDRAM,
		SuspensionNS:  int64(c.Suspension),
		SoftPF:        c.SoftPF,
		HardPF:        c.HardPF,
		VolCS:         c.VolCS,
		InvolCS:       c.InvolCS,
		Signals:       c.Signals,
		LoadStores:    c.LoadStores,
		CacheMisses:   c.CacheMisses,
		L2MissStall:   c.L2MissStall,
	}
}

func (t *Traced) emit(f trace.Fragment) {
	if t.sink == nil {
		return
	}
	t.batch = append(t.batch, f)
	if len(t.batch) >= t.opt.FlushEvery {
		t.Flush()
	}
}

// Flush pushes buffered fragments to the sink. Called automatically
// when the buffer fills and must be called once at rank exit. The sink
// encodes the batch and books its bytes (vapro_intake_bytes_total);
// the client encodes nothing.
func (t *Traced) Flush() {
	if t.sink == nil || len(t.batch) == 0 {
		return
	}
	n := len(t.batch)
	t.sink.Consume(t.r.ID(), t.batch)
	t.batch = nil
	if t.met != nil {
		t.met.Flushes.Inc()
		t.met.Fragments.Add(uint64(n))
		if d := t.Events - t.pushedEvents; d > 0 {
			t.met.Interceptions.Add(uint64(d))
			t.pushedEvents = t.Events
		}
		if d := t.Dropped - t.pushedDrops; d > 0 {
			t.met.Dropped.Add(uint64(d))
			t.pushedDrops = t.Dropped
		}
	}
}

// SiteNames returns the state-key → human-readable-site mapping this
// rank observed (merged across ranks for reports).
func (t *Traced) SiteNames() map[uint64]string { return t.siteOfState }
