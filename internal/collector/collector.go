// Package collector implements Vapro's online client/server analysis
// plane (§3.5, §5): application ranks ship fragment batches to dedicated
// server processes; each server periodically analyzes the last time
// window, with windows overlapped so consecutive results concatenate;
// servers shard ranks for scale (ShardedPool; one server per 256
// clients in the paper's configuration). During progressive diagnosis the
// server instructs its clients to switch counter groups.
package collector

import (
	"math"
	"sync"

	"vapro/internal/detect"
	"vapro/internal/interpose"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// Options configures the collection plane.
type Options struct {
	// Period is the reporting/analysis period (paper: 15 s of
	// execution time).
	Period sim.Duration
	// Overlap is how much consecutive analysis windows overlap so the
	// per-period results concatenate seamlessly (paper: overlapped
	// sliding windows; we default to half a period).
	Overlap sim.Duration
	// Detect configures the per-window analysis.
	Detect detect.Options
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Period:  15 * sim.Second,
		Overlap: 7500 * sim.Millisecond,
		Detect:  detect.DefaultOptions(),
	}
}

// Pool is one analysis server: a staged intake, the STG it merges into,
// and a persistent analyzer over a snapshot of that graph, plus the
// shared counter-arming handle. It implements interpose.Sink. The
// paper's one server per 256 clients is a shard count: ShardedPool runs
// one Pool per shard.
type Pool struct {
	opt   Options
	ranks int
	Armed *interpose.Armed

	// Intake (ingest.go): smu guards the staged list; mu guards the graph
	// and the drain that merges staged batches into it.
	smu     sync.Mutex
	staged  []stagedBatch
	drained []stagedBatch // drainLocked's scratch, kept (emptied) between sweeps
	// maxStaged is the backlog bound, intakeMaxStaged in production;
	// in-package tests shrink it to force the backpressure path.
	maxStaged int
	// free holds drained staging buffers for stage to reuse: a staged
	// copy is dead the moment AddBatch has written its rows into the
	// graph's columns. It retains at most intakeFreeBuffers of them. Up
	// to maxStaged can be staged at once (a drain preempted while every
	// connection keeps staging), and keeping them all would pin a burst's
	// buffers for the pool's lifetime; past the bound a drained buffer
	// goes back to the GC.
	free  chan []trace.Fragment
	mu    sync.Mutex
	graph *stg.Graph
	// bytesIn tracks the transport volume for the storage-overhead
	// accounting of §6.2, measured over the encoded wire format.
	bytesIn int64
	batches int

	// amu serializes the analysis side (snapshot + analyzer); ingestion
	// never takes it.
	amu  sync.Mutex
	view *stg.Graph
	an   *detect.Analyzer

	// met is the pool's always-on observability surface.
	met *Metrics

	// seq is the per-rank sequence tracker. It lives on the pool rather
	// than the wire server so gap accounting survives server restarts —
	// exactly the window where batches get lost.
	seq *SeqTracker

	// jour is the delivery journal the serving process attached
	// (AttachJournal), if any; the wire server appends every delivered
	// frame to it. The pool only holds the handle — open/close belong
	// to whoever runs the process.
	jour *wal.Log
}

// NewPool builds the analysis server for the given number of client
// ranks.
func NewPool(ranks int, opt Options) *Pool {
	if opt.Period <= 0 {
		opt.Period = 15 * sim.Second
	}
	if opt.Overlap <= 0 || opt.Overlap >= opt.Period {
		opt.Overlap = opt.Period / 2
	}
	p := &Pool{
		opt:       opt,
		ranks:     ranks,
		Armed:     interpose.NewArmed(sim.GroupBase | sim.GroupTopdownL1 | sim.GroupOS),
		maxStaged: intakeMaxStaged,
		free:      make(chan []trace.Fragment, intakeFreeBuffers),
		graph:     stg.New(),
		view:      stg.New(),
		an:        detect.NewAnalyzer(),
		met:       NewMetrics(),
		seq:       NewSeqTracker(),
	}
	p.an.SetMetrics(p.met.Detect)
	p.registerDerived()
	return p
}

// SeqState returns the pool's sequence tracker; wire servers feed it so
// per-rank gap accounting accumulates across server restarts.
func (p *Pool) SeqState() *SeqTracker { return p.seq }

// Consume implements interpose.Sink: stage the batch. The encoded size
// is measured here (outside every lock) so Stats reports real wire
// bytes.
func (p *Pool) Consume(rank int, frags []trace.Fragment) {
	p.stage(frags, trace.BatchWireSize(rank, frags), TraceCtx{}, false)
}

// ConsumeSized stages a batch whose encoded wire size was already
// measured (the wire server passes the payload length it just decoded),
// so the batch is not re-encoded merely for the byte accounting.
func (p *Pool) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	p.stage(frags, bytes, TraceCtx{}, false)
}

// Close drains the staged batches into the graph. Every read path
// drains on demand too, so a pool needs no Close; calling it is always
// safe.
func (p *Pool) Close() { p.drain() }

// Graph copies the pool's STG into one fresh graph (used for the final
// whole-run analysis and reports; the caller owns the result).
func (p *Pool) Graph() *stg.Graph {
	p.drain()
	g := stg.New()
	p.mu.Lock()
	g.Merge(p.graph)
	p.mu.Unlock()
	return g
}

// FragmentCount returns the total fragments received.
func (p *Pool) FragmentCount() int {
	p.drain()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.graph.NumFragments()
}

// refreshView points the analysis snapshot at the graph's current
// element logs, aliasing (not copying) every element whose generation
// moved since the last refresh. The graph only ever appends, so a later
// view of an element's log extends the earlier one and the element's
// epoch survives — which is what keeps the incremental clustering and
// prep planes warm. A log view is physically stable under later appends
// (trace.Log), so the analysis then runs without the graph lock. Caller
// holds p.amu.
func (p *Pool) refreshView() *stg.Graph {
	v := p.view
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.graph.Edges() {
		if ve := v.Edge(e.Key); ve == nil || ve.Gen.Count != e.Gen.Count {
			v.AliasEdge(e.Key, e.Log())
		}
	}
	for _, vx := range p.graph.Vertices() {
		if vv := v.Vertex(vx.Key); vv == nil || vv.Gen.Count != vx.Gen.Count {
			v.AliasVertex(vx.Key, vx.Kind, vx.Log())
		}
	}
	p.graph.EachName(v.SetName)
	return v
}

// WindowResults runs the periodic per-window analysis and concatenates
// the results in time order: the online view of the run. Each window
// [k·(period−overlap), k·(period−overlap)+period) is analyzed
// independently, exactly like a server waking up each period. The
// analysis runs over the graph's snapshot with a persistent analyzer, so repeated calls re-do work only for the elements (and
// windows) that received new fragments.
func (p *Pool) WindowResults() []*WindowResult {
	return p.WindowResultsRange(0, math.MaxInt64)
}

// WindowResultsRange is WindowResults restricted to the windows that
// intersect [from, to) in virtual time. The window grid is unchanged —
// windows still start at multiples of the stride from zero, so a range
// query returns exactly the rows the full query would, filtered — and
// that is what makes historical queries over a replayed journal line
// up with the live run's results. to <= 0 means "end of data".
func (p *Pool) WindowResultsRange(from, to int64) []*WindowResult {
	p.drain()
	p.amu.Lock()
	defer p.amu.Unlock()
	g := p.refreshView()
	_, maxEnd, ok := g.Bounds()
	if !ok || maxEnd <= 0 {
		return nil
	}
	dopt := p.opt.Detect
	dopt.Outages = p.seq.Outages()
	// Element span bounds reject empty windows without touching
	// fragments.
	out := windowGrid(p.opt, maxEnd, from, to, g.Overlaps, func(start, end int64) *detect.Result {
		return p.an.RunWindow(g, p.ranks, dopt, start, end)
	})
	p.met.Trace.CompleteAnalyze()
	return out
}

// windowGrid runs, in time order, the windows of the grid anchored at
// zero — one every Period−Overlap (Period when that is not positive) —
// that start before maxEnd, intersect [from, to) (to <= 0: end of
// data) and that covered admits. A range query calls it once, with one
// snapshot of the outages in run's options, so windows covering a loss
// interval all mark the rank stale against the same snapshot.
func windowGrid(opt Options, maxEnd, from, to int64, covered func(start, end int64) bool, run func(start, end int64) *detect.Result) []*WindowResult {
	if to <= 0 {
		to = math.MaxInt64
	}
	stride := int64(opt.Period - opt.Overlap)
	if stride <= 0 {
		stride = int64(opt.Period)
	}
	var out []*WindowResult
	for start := int64(0); start < maxEnd; start += stride {
		end := start + int64(opt.Period)
		if end <= from || start >= to || !covered(start, end) {
			continue
		}
		out = append(out, &WindowResult{Start: sim.Time(start), End: sim.Time(end), Result: run(start, end)})
	}
	return out
}

// RunWindow analyzes one explicit window over the graph's snapshot:
// drain the intake, alias the grown elements' logs, and run the
// persistent analyzer. This is
// the steady-state tick a driver loop pays per period — with warm
// elements it costs O(new data), not O(resident fragments).
func (p *Pool) RunWindow(start, end int64) *detect.Result {
	dopt := p.opt.Detect
	dopt.Outages = p.seq.Outages()
	return p.analyze(func(g *stg.Graph) *detect.Result { return p.an.RunWindow(g, p.ranks, dopt, start, end) })
}

// analyze drains the intake, aliases the grown elements' logs, and runs
// pass over the snapshot: RunWindow's, or a tier plane's partial
// (detect.Analyzer.Partial), which the tier merges and marks stale.
func (p *Pool) analyze(pass func(g *stg.Graph) *detect.Result) *detect.Result {
	p.drain()
	p.amu.Lock()
	defer p.amu.Unlock()
	res := pass(p.refreshView())
	// Journeys drained before this tick are now visible to analysis.
	p.met.Trace.CompleteAnalyze()
	return res
}

// viewBounds drains the intake, refreshes the snapshot, and returns its
// fragment span. The sharded tier uses it
// to lay out a global window grid across planes.
func (p *Pool) viewBounds() (minStart, maxEnd int64, ok bool) {
	p.drain()
	p.amu.Lock()
	defer p.amu.Unlock()
	g := p.refreshView()
	return g.Bounds()
}

// viewOverlaps reports whether any element's fragment span intersects
// [start, end). Callers refresh the view first (viewBounds).
func (p *Pool) viewOverlaps(start, end int64) bool {
	p.amu.Lock()
	defer p.amu.Unlock()
	return p.view.Overlaps(start, end)
}

// WindowResult is one analysis period's outcome.
type WindowResult struct {
	Start, End sim.Time
	Result     *detect.Result
}

// Stats summarizes a pool's transport volume.
type Stats struct {
	// Servers counts analysis servers: 1 for a Pool, the shard count for
	// a ShardedPool.
	Servers   int
	Fragments int
	BytesIn   int64
	Batches   int
	// BytesPerRankSecond is the storage rate per client (§6.2 reports
	// 12.8-47.4 KB/s), measured over the encoded wire format.
	BytesPerRankSecond float64
	// IntakeStalls counts consumers that found the staged backlog at
	// its bound and had to drain synchronously (backpressure).
	IntakeStalls uint64
	// MaxStagedDepth is the high-water mark of batches staged at once.
	MaxStagedDepth int64
	// FramesRejected counts wire frames that terminated their
	// connection (oversized, torn, or undecodable payloads).
	FramesRejected uint64
	// SeqGaps counts batches inferred lost from per-rank sequence gaps
	// (client-side spill evictions and frames that died with a
	// connection), DupFrames the suppressed retransmit duplicates, and
	// Outages the recorded per-rank loss intervals in virtual time.
	SeqGaps   uint64
	DupFrames uint64
	Outages   int
}

// Stats returns transport statistics given the run's virtual makespan.
func (p *Pool) Stats(makespan sim.Duration) Stats {
	p.drain()
	st := Stats{Servers: 1}
	p.mu.Lock()
	st.Fragments = p.graph.NumFragments()
	st.BytesIn = p.bytesIn
	st.Batches = p.batches
	p.mu.Unlock()
	if sec := makespan.Seconds(); sec > 0 && p.ranks > 0 {
		st.BytesPerRankSecond = float64(st.BytesIn) / sec / float64(p.ranks)
	}
	st.IntakeStalls = p.met.IntakeStalls.Load()
	st.MaxStagedDepth = p.met.IntakeStagedPeak.Load()
	st.FramesRejected = p.met.WireFramesRejected.Load()
	st.SeqGaps = p.seq.GapFrames()
	st.DupFrames = p.seq.Dups()
	st.Outages = len(p.seq.Outages())
	return st
}
