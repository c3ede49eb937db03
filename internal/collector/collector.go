// Package collector implements Vapro's online client/server analysis
// plane (§3.5, §5): application ranks ship fragment batches to dedicated
// server processes; each server periodically analyzes the last time
// window, with windows overlapped so consecutive results concatenate;
// a Pool shards ranks over its planes for scale (one server per 256
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

// plane is one analysis server: a staged intake, the STG it merges
// into, and a persistent analyzer over a snapshot of that graph, with
// its own sequence tracker, delivery journal and metrics registry. A
// Pool runs one plane per shard; the paper's one server per 256 clients
// is a shard count.
type plane struct {
	opt   Options
	ranks int

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
	// buffers for the plane's lifetime; past the bound a drained buffer
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

	// met is the plane's always-on observability surface.
	met *Metrics

	// seq is the per-rank sequence tracker. It lives on the plane rather
	// than the wire server so gap accounting survives server restarts —
	// exactly the window where batches get lost.
	seq *SeqTracker

	// jour is the delivery journal the serving process attached
	// (AttachJournal), if any; the wire server appends every delivered
	// frame to it. The plane only holds the handle — open/close belong
	// to whoever runs the process.
	jour *wal.Log
}

// newPlane builds one analysis server over a rank space of size ranks;
// opt is already normalized.
func newPlane(ranks int, opt Options) *plane {
	pl := &plane{
		opt:       opt,
		ranks:     ranks,
		maxStaged: intakeMaxStaged,
		free:      make(chan []trace.Fragment, intakeFreeBuffers),
		graph:     stg.New(),
		view:      stg.New(),
		an:        detect.NewAnalyzer(),
		met:       NewMetrics(),
		seq:       NewSeqTracker(),
	}
	pl.an.SetMetrics(pl.met.Detect)
	pl.registerDerived()
	return pl
}

// SeqState returns the plane's sequence tracker; wire servers feed it so
// per-rank gap accounting accumulates across server restarts.
func (pl *plane) SeqState() *SeqTracker { return pl.seq }

// Close drains the staged batches into the graph. Every read path
// drains on demand too, so a plane needs no Close; calling it is always
// safe.
func (pl *plane) Close() { pl.drain() }

// refreshView points the analysis snapshot at the graph's current
// element logs, aliasing (not copying) every element whose generation
// moved since the last refresh. The graph only ever appends, so a later
// view of an element's log extends the earlier one and the element's
// epoch survives — which is what keeps the incremental clustering and
// prep planes warm. A log view is physically stable under later appends
// (trace.Log), so the analysis then runs without the graph lock. Caller
// holds pl.amu.
func (pl *plane) refreshView() *stg.Graph {
	v := pl.view
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, e := range pl.graph.Edges() {
		if ve := v.Edge(e.Key); ve == nil || ve.Gen.Count != e.Gen.Count {
			v.AliasEdge(e.Key, e.Log())
		}
	}
	for _, vx := range pl.graph.Vertices() {
		if vv := v.Vertex(vx.Key); vv == nil || vv.Gen.Count != vx.Gen.Count {
			v.AliasVertex(vx.Key, vx.Kind, vx.Log())
		}
	}
	pl.graph.EachName(v.SetName)
	return v
}

// RunWindow analyzes one explicit window over the plane's snapshot, as a
// whole server: drain the intake, alias the grown elements' logs, and
// run the persistent analyzer's full pass against the plane's own
// outages. This is the steady-state tick a driver loop pays per period
// — with warm elements it costs O(new data), not O(resident fragments).
func (pl *plane) RunWindow(start, end int64) *detect.Result {
	dopt := pl.opt.Detect
	dopt.Outages = pl.seq.Outages()
	return pl.analyze(func(g *stg.Graph) *detect.Result { return pl.an.RunWindow(g, pl.ranks, dopt, start, end) })
}

// analyze drains the intake, aliases the grown elements' logs, and runs
// pass over the snapshot: a full window pass, or a partial
// (detect.Analyzer.Partial) that the pool merges across planes.
func (pl *plane) analyze(pass func(g *stg.Graph) *detect.Result) *detect.Result {
	pl.drain()
	pl.amu.Lock()
	defer pl.amu.Unlock()
	res := pass(pl.refreshView())
	// Journeys drained before this tick are now visible to analysis.
	pl.met.Trace.CompleteAnalyze()
	return res
}

// stats returns the plane's transport statistics; the storage rate is
// the pool's, over its whole rank space.
func (pl *plane) stats() Stats {
	pl.drain()
	st := Stats{Servers: 1}
	pl.mu.Lock()
	st.Fragments = pl.graph.NumFragments()
	st.BytesIn = pl.bytesIn
	st.Batches = pl.batches
	pl.mu.Unlock()
	st.IntakeStalls = pl.met.IntakeStalls.Load()
	st.MaxStagedDepth = pl.met.IntakeStagedPeak.Load()
	st.FramesRejected = pl.met.WireFramesRejected.Load()
	st.SeqGaps = pl.seq.GapFrames()
	st.DupFrames = pl.seq.Dups()
	st.Outages = len(pl.seq.Outages())
	return st
}

// Pool is the analysis service over one rank space: n ≥ 1 planes, each
// holding the ranks a stable hash assigns it (DESIGN §12), behind one
// routing, analysis and metrics surface, plus the shared counter-arming
// handle. It implements interpose.Sink — in-process producers route by
// owner; wire producers get a per-plane sink from WireSink. The rank
// space is one population whatever n is: every window bins one heat map
// per class and grows regions over all of it (normalization stays
// per plane, DESIGN §12).
//
// Two choices depend on n, both made in NewShardedPool: the tick (one
// plane gets no merger, and pass runs its full pass inline; more planes
// get one, stop at partials and the pool merges them) and the registry
// (one plane's registry is the pool's; more planes add a tier registry
// with the shard rows). The direct-sink accessors SeqState, Journal and
// AttachJournal address a one-plane pool's plane; per-plane access
// goes through Plane(i).
type Pool struct {
	opt    Options
	ranks  int
	Armed  *interpose.Armed
	planes []*plane
	owner  []int // precomputed ShardOwner per rank

	// met is the pool's surface: its one plane's, or a tier registry for
	// the shard-layer counters (misroutes, rebalances, merge accounting)
	// and the per-shard rows. mets is what MergedSnapshot folds: met,
	// then every plane's that is not met.
	met  *Metrics
	mets []*Metrics

	// mmu guards the published shard map (address set + version).
	mmu sync.Mutex
	mp  ShardMap

	// amu serializes merges: the Merger's region carry is warm state
	// threaded from tick to tick. A one-plane pool has no merger, which
	// is what selects its full pass (pass).
	amu    sync.Mutex
	merger *detect.Merger
}

// NewPool builds the analysis service for the given number of client
// ranks on one plane.
func NewPool(ranks int, opt Options) *Pool { return NewShardedPool(ranks, 1, opt) }

// NewShardedPool builds shards analysis planes over a global rank space
// of size ranks. Each plane holds its resident ranks only and shares
// the pool's arming handle.
func NewShardedPool(ranks, shards int, opt Options) *Pool {
	shards = max(shards, 1)
	if opt.Period <= 0 {
		opt.Period = 15 * sim.Second
	}
	if opt.Overlap <= 0 || opt.Overlap >= opt.Period {
		opt.Overlap = opt.Period / 2
	}
	p := &Pool{
		opt:   opt,
		ranks: ranks,
		Armed: interpose.NewArmed(sim.GroupBase | sim.GroupTopdownL1 | sim.GroupOS),
		owner: make([]int, ranks),
		mp:    ShardMap{Addrs: make([]string, shards)},
	}
	resident := make([]int, shards)
	for r := 0; r < ranks; r++ {
		p.owner[r] = ShardOwner(r, shards)
		resident[p.owner[r]]++
	}
	for i := 0; i < shards; i++ {
		// Each plane owns a full registry (derived Funcs included): a
		// plane's own endpoint serves it directly, and the pool's view is
		// the merge. vapro_ranks merges by max and the per-plane storage
		// rate divides by the global rank count, so the merged values
		// read exactly like one plane's.
		p.planes = append(p.planes, newPlane(ranks, opt))
	}
	if shards == 1 {
		p.met = p.planes[0].met
		p.mets = []*Metrics{p.met}
		return p
	}
	p.met = NewMetrics()
	p.mets = []*Metrics{p.met}
	for _, pl := range p.planes {
		p.mets = append(p.mets, pl.met)
	}
	p.merger = detect.NewMerger()
	p.merger.SetMetrics(p.met.Detect)
	p.registerTierDerived(resident)
	return p
}

// Plane exposes one shard's analysis plane: per-plane journals,
// metrics endpoints and window passes go through it.
func (p *Pool) Plane(shard int) *plane { return p.planes[shard] }

// solo returns the pool's plane when it has exactly one, else nil: the
// plane a direct sink's sequence state and journal belong to.
func (p *Pool) solo() *plane {
	if len(p.planes) == 1 {
		return p.planes[0]
	}
	return nil
}

// SeqState returns a one-plane pool's sequence tracker, so a wire server
// fed directly by the pool (or a Monitor over it) accumulates gap
// accounting across restarts; nil over several planes, whose trackers
// are per plane (WireSink).
func (p *Pool) SeqState() *SeqTracker {
	if pl := p.solo(); pl != nil {
		return pl.seq
	}
	return nil
}

// Close drains every plane's staged batches. Every read path drains on
// demand too, so a pool needs no Close; calling it is always safe.
func (p *Pool) Close() {
	for _, pl := range p.planes {
		pl.drain()
	}
}

// Graph copies every plane into one fresh global STG (used for the
// final whole-run analysis and reports; the caller owns the result).
func (p *Pool) Graph() *stg.Graph {
	g := stg.New()
	for _, pl := range p.planes {
		pl.drain()
		pl.mu.Lock()
		g.Merge(pl.graph)
		pl.mu.Unlock()
	}
	return g
}

// FragmentCount returns the total fragments received.
func (p *Pool) FragmentCount() int {
	n := 0
	for _, pl := range p.planes {
		n += pl.fragments()
	}
	return n
}

// fragments returns the fragments the plane holds, staged ones drained.
func (pl *plane) fragments() int {
	pl.drain()
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.graph.NumFragments()
}

// RunWindow is the pool's steady-state tick: one window over every
// plane, binned and grown as one rank space, with every plane's loss
// intervals marked.
func (p *Pool) RunWindow(start, end int64) *detect.Result {
	return p.runWindow(start, end, p.outageOptions())
}

// outageOptions returns the detection options with every plane's loss
// intervals: a rank's staleness lands in its row even if the batch
// exposing it was misrouted.
func (p *Pool) outageOptions() detect.Options {
	dopt := p.opt.Detect
	dopt.Outages = nil
	for _, pl := range p.planes {
		dopt.Outages = append(dopt.Outages, pl.seq.Outages()...)
	}
	return dopt
}

// runWindow is the tick: each plane drains, refreshes its view and runs
// its share of the window over it.
func (p *Pool) runWindow(start, end int64, dopt detect.Options) *detect.Result {
	return p.pass(start, end, dopt, func(i int, pass func(g *stg.Graph) *detect.Result) *detect.Result {
		return p.planes[i].analyze(pass)
	})
}

// pass analyzes one window under dopt, running plane i's share through
// on(i, share). A pool without a merger (one plane) runs its analyzer's
// full pass inline. Otherwise the planes run concurrently, each stopping
// at its partial, and the Merger completes the partials into one global
// result: one heat map per class and one region growth.
func (p *Pool) pass(start, end int64, dopt detect.Options, on func(i int, share func(g *stg.Graph) *detect.Result) *detect.Result) *detect.Result {
	if p.merger == nil {
		an := p.planes[0].an
		return on(0, func(g *stg.Graph) *detect.Result { return an.RunWindow(g, p.ranks, dopt, start, end) })
	}
	parts := make([]*detect.Result, len(p.planes))
	var wg sync.WaitGroup
	for i, pl := range p.planes {
		wg.Add(1)
		go func(i int, pl *plane) {
			defer wg.Done()
			parts[i] = on(i, func(g *stg.Graph) *detect.Result { return pl.an.Partial(g, pl.opt.Detect, start, end) })
		}(i, pl)
	}
	wg.Wait()
	p.amu.Lock()
	defer p.amu.Unlock()
	res, stats := p.merger.Merge(parts, p.ranks, p.Owner, dopt)
	p.met.ShardStripsMerged.Add(uint64(stats.Strips))
	p.met.ShardRegionsStitched.Add(uint64(stats.Stitched))
	return res
}

// lockPlanes drains every plane, takes the planes' amu in plane order
// and returns their refreshed views; unlockPlanes releases them.
func (p *Pool) lockPlanes() []*stg.Graph {
	views := make([]*stg.Graph, len(p.planes))
	for i, pl := range p.planes {
		pl.drain()
		pl.amu.Lock()
		views[i] = pl.refreshView()
	}
	return views
}

func (p *Pool) unlockPlanes() {
	for _, pl := range p.planes {
		pl.amu.Unlock()
	}
}

// WindowResults runs the periodic per-window analysis and concatenates
// the results in time order: the online view of the run. Each window
// [k·(period−overlap), k·(period−overlap)+period) is analyzed
// independently, exactly like a server waking up each period. The
// analysis runs over the planes' snapshots with their persistent
// analyzers, so repeated calls re-do work only for the elements (and
// windows) that received new fragments.
func (p *Pool) WindowResults() []*WindowResult {
	return p.WindowResultsRange(0, 0)
}

// WindowResultsRange is WindowResults restricted to the windows that
// intersect [from, to) in virtual time. The window grid is unchanged —
// windows still start at multiples of the stride from zero, so a range
// query returns exactly the rows the full query would, filtered — and
// that is what makes historical queries over a replayed journal line
// up with the live run's results. to <= 0 means "end of data". Every
// window of the query runs against one snapshot: each plane's view is
// refreshed once and its analysis lock held until the last window.
func (p *Pool) WindowResultsRange(from, to int64) []*WindowResult {
	views := p.lockPlanes()
	defer p.unlockPlanes()
	maxEnd := int64(0)
	for _, g := range views {
		if _, e, ok := g.Bounds(); ok {
			maxEnd = max(maxEnd, e)
		}
	}
	if maxEnd <= 0 {
		return nil
	}
	// Element span bounds reject empty windows without touching
	// fragments.
	covered := func(start, end int64) bool {
		for _, g := range views {
			if g.Overlaps(start, end) {
				return true
			}
		}
		return false
	}
	dopt := p.outageOptions()
	out := windowGrid(p.opt, maxEnd, from, to, covered, func(start, end int64) *detect.Result {
		return p.pass(start, end, dopt, func(i int, share func(g *stg.Graph) *detect.Result) *detect.Result {
			return share(views[i])
		})
	})
	// Journeys drained before this query are now visible to analysis.
	for _, pl := range p.planes {
		pl.met.Trace.CompleteAnalyze()
	}
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

// WindowResult is one analysis period's outcome.
type WindowResult struct {
	Start, End sim.Time
	Result     *detect.Result
}

// Stats summarizes a pool's transport volume.
type Stats struct {
	// Servers counts analysis servers: the pool's plane count.
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

// Stats returns transport statistics, summed over the planes, given the
// run's virtual makespan.
func (p *Pool) Stats(makespan sim.Duration) Stats {
	var st Stats
	for _, pl := range p.planes {
		ps := pl.stats()
		st.Servers += ps.Servers
		st.Fragments += ps.Fragments
		st.BytesIn += ps.BytesIn
		st.Batches += ps.Batches
		st.SeqGaps += ps.SeqGaps
		st.DupFrames += ps.DupFrames
		st.Outages += ps.Outages
		st.IntakeStalls += ps.IntakeStalls
		st.FramesRejected += ps.FramesRejected
		st.MaxStagedDepth = max(st.MaxStagedDepth, ps.MaxStagedDepth)
	}
	if sec := makespan.Seconds(); sec > 0 && p.ranks > 0 {
		st.BytesPerRankSecond = float64(st.BytesIn) / sec / float64(p.ranks)
	}
	return st
}
