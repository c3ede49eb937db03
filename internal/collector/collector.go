// Package collector implements Vapro's online client/server analysis
// plane (§3.5, §5): application ranks ship fragment batches to dedicated
// server processes; each server periodically analyzes the last time
// window, with windows overlapped so consecutive results concatenate;
// multiple servers shard clients for scale (one server per 256 clients
// in the paper's configuration). During progressive diagnosis the
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
	// Servers is the number of server processes; clients are sharded
	// rank-modulo-servers for load balance.
	Servers int
	// ClientsPerServer, when > 0, derives Servers from the rank count
	// (the paper's 1:256 provisioning).
	ClientsPerServer int
	// Period is the reporting/analysis period (paper: 15 s of
	// execution time).
	Period sim.Duration
	// Overlap is how much consecutive analysis windows overlap so the
	// per-period results concatenate seamlessly (paper: overlapped
	// sliding windows; we default to half a period).
	Overlap sim.Duration
	// Detect configures the per-window analysis.
	Detect detect.Options
	// DisableDeltaView is the escape hatch for the delta-append merged
	// view: when set, every changed multi-server element is rebuilt by
	// full concatenation (the legacy path), which bumps its epoch and
	// sends its analysis back through the batch plane. Results are
	// unchanged either way.
	DisableDeltaView bool
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		ClientsPerServer: 256,
		Period:           15 * sim.Second,
		Overlap:          7500 * sim.Millisecond,
		Detect:           detect.DefaultOptions(),
	}
}

// Pool is a set of server processes plus the shared counter-arming
// handle. It implements interpose.Sink; traced ranks push straight into
// their shard.
type Pool struct {
	opt     Options
	ranks   int
	servers []*Server
	Armed   *interpose.Armed

	// amu serializes the analysis side (merged view + analyzer);
	// ingestion never takes it.
	amu  sync.Mutex
	view *mergedView
	an   *detect.Analyzer

	// met is the pool's always-on observability surface; servers share
	// its handles, so ingestion never branches on "metrics enabled".
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

// NewPool builds the server pool for the given number of client ranks.
func NewPool(ranks int, opt Options) *Pool {
	return newPoolWith(ranks, opt, nil, true)
}

// newPoolWith is the shared constructor: the sharded tier builds one
// plane per shard with a shared Metrics surface (counters aggregate
// across planes) and derived=false, because the per-pool Func metrics
// (staged depth, cache counters) would otherwise clobber each other in
// the shared registry — the tier registers summed equivalents instead.
func newPoolWith(ranks int, opt Options, met *Metrics, derived bool) *Pool {
	if opt.Period <= 0 {
		opt.Period = 15 * sim.Second
	}
	if opt.Overlap <= 0 || opt.Overlap >= opt.Period {
		opt.Overlap = opt.Period / 2
	}
	n := opt.Servers
	if n <= 0 {
		per := opt.ClientsPerServer
		if per <= 0 {
			per = 256
		}
		n = (ranks + per - 1) / per
		if n < 1 {
			n = 1
		}
	}
	if met == nil {
		met = NewMetrics()
	}
	p := &Pool{
		opt:   opt,
		ranks: ranks,
		Armed: interpose.NewArmed(sim.GroupBase | sim.GroupTopdownL1 | sim.GroupOS),
		view:  newMergedView(),
		an:    detect.NewAnalyzer(),
		met:   met,
		seq:   NewSeqTracker(),
	}
	p.an.SetMetrics(p.met.Detect)
	for i := 0; i < n; i++ {
		p.servers = append(p.servers, newServer(p.met))
	}
	if derived {
		p.registerDerived()
	}
	return p
}

// Servers returns the number of server processes.
func (p *Pool) Servers() int { return len(p.servers) }

// SeqState returns the pool's sequence tracker; wire servers feed it so
// per-rank gap accounting accumulates across server restarts.
func (p *Pool) SeqState() *SeqTracker { return p.seq }

// Consume implements interpose.Sink: route the batch to the client's
// shard.
func (p *Pool) Consume(rank int, frags []trace.Fragment) {
	s := p.servers[rank%len(p.servers)]
	s.consume(rank, frags)
}

// ConsumeSized routes a batch whose encoded wire size was already
// measured (the wire server passes the payload length it just decoded),
// so the batch is not re-encoded merely for the byte accounting.
func (p *Pool) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	s := p.servers[rank%len(p.servers)]
	s.consumeSized(rank, frags, bytes)
}

// Close drains every server's staged batches into its graph. Every read
// path drains on demand too, so a pool needs no Close; calling it is
// always safe.
func (p *Pool) Close() { p.drainAll() }

// drainAll merges every server's staged batches into its graph.
func (p *Pool) drainAll() {
	for _, s := range p.servers {
		s.drain()
	}
}

// Graph merges every server's STG into one fresh global graph (used for
// the final whole-run analysis and reports; the caller owns the result).
func (p *Pool) Graph() *stg.Graph {
	p.drainAll()
	g := stg.New()
	for _, s := range p.servers {
		s.mu.Lock()
		g.Merge(s.graph)
		s.mu.Unlock()
	}
	return g
}

// FragmentCount returns the total fragments received by all servers.
func (p *Pool) FragmentCount() int {
	p.drainAll()
	n := 0
	for _, s := range p.servers {
		s.mu.Lock()
		n += s.graph.NumFragments()
		s.mu.Unlock()
	}
	return n
}

// mergedView is the incrementally maintained union of every server's
// STG. Each element's version in the view is the sum of the servers'
// element generation counts (= the element's total append count), so a
// refresh touches only the elements that actually grew, and an
// unchanged pool refreshes in O(elements) version checks instead of
// O(total fragments).
//
// The view's graph owns no fragments: every element aliases a log
// (stg.Graph.AliasEdge/AliasVertex). An element held by a single server
// aliases that server's own log — a later view of the same log keeps
// the element's generation epoch, which is what lets the incremental
// clustering + prep planes stay warm, and costs no copy. An element
// held by several servers aliases a view-owned log with a cursor per
// server: a refresh appends each server's new suffix in fixed server
// order (trace.Log.AppendFrom), so the element's epoch stays warm too,
// at the price of a second resident copy of that element's rows (in
// columns, not 280-byte structs). A rebase — a fresh owned log built
// from every server's rows, epoch bump — happens only on the first
// multi-server sighting, a server epoch change, a shrink, or the
// DisableDeltaView hatch.
type mergedView struct {
	graph     *stg.Graph
	edgeVer   map[trace.EdgeKey]uint64
	vertVer   map[uint64]uint64
	edgeElems map[trace.EdgeKey]*viewElem
	vertElems map[uint64]*viewElem
	// logs accounts the view-owned logs.
	logs trace.LogStats
}

func newMergedView() *mergedView {
	return &mergedView{
		graph:     stg.New(),
		edgeVer:   make(map[trace.EdgeKey]uint64),
		vertVer:   make(map[uint64]uint64),
		edgeElems: make(map[trace.EdgeKey]*viewElem),
		vertElems: make(map[uint64]*viewElem),
	}
}

// viewElem is the per-element merge state: how much of each server's
// log is already in the view, and the view-owned log of a multi-server
// element (nil while the element aliases a single server's log).
type viewElem struct {
	cursors []int    // per server: fragments already folded into the view
	epochs  []uint64 // per server: epoch those cursors were taken against
	log     *trace.Log
}

// viewAccum is one element's per-refresh snapshot across servers,
// indexed by server so the delta cursors line up refresh to refresh.
type viewAccum struct {
	ver    uint64
	kind   trace.Kind
	parts  []trace.LogView
	epochs []uint64
}

// refreshView folds the servers' current graphs into the merged view.
// Per-server logs are snapshotted as views under the server lock; a
// view is physically stable under the server's later appends
// (trace.Log), so the merge runs without holding any server lock.
// Caller holds p.amu.
func (p *Pool) refreshView() *stg.Graph {
	v := p.view
	ns := len(p.servers)
	eacc := make(map[trace.EdgeKey]*viewAccum)
	vacc := make(map[uint64]*viewAccum)
	for si, s := range p.servers {
		s.mu.Lock()
		for _, e := range s.graph.Edges() {
			a := eacc[e.Key]
			if a == nil {
				a = &viewAccum{parts: make([]trace.LogView, ns), epochs: make([]uint64, ns)}
				eacc[e.Key] = a
			}
			a.ver += e.Gen.Count
			a.parts[si] = e.Log()
			a.epochs[si] = e.Gen.Epoch
		}
		for _, vx := range s.graph.Vertices() {
			a := vacc[vx.Key]
			if a == nil {
				// The first server holding the vertex decides its kind,
				// matching a from-scratch merge (vertex kind comes from
				// the first fragment added).
				a = &viewAccum{kind: vx.Kind, parts: make([]trace.LogView, ns), epochs: make([]uint64, ns)}
				vacc[vx.Key] = a
			}
			a.ver += vx.Gen.Count
			a.parts[si] = vx.Log()
			a.epochs[si] = vx.Gen.Epoch
		}
		s.graph.EachName(v.graph.SetName)
		s.mu.Unlock()
	}
	for k, a := range eacc {
		if v.edgeVer[k] == a.ver {
			continue
		}
		applyView(p, a, v.edgeElems, k, func(log trace.LogView) { v.graph.AliasEdge(k, log) })
		v.edgeVer[k] = a.ver
	}
	for k, a := range vacc {
		if v.vertVer[k] == a.ver {
			continue
		}
		applyView(p, a, v.vertElems, k, func(log trace.LogView) { v.graph.AliasVertex(k, a.kind, log) })
		v.vertVer[k] = a.ver
	}
	return v.graph
}

// applyView folds one changed element's snapshot into the view: alias
// points the view graph's element (alias closes over its key) at the
// single holder's log, or at the view-owned log after it took every
// server's new suffix — or, on a rebase, at a fresh one.
func applyView[K comparable](p *Pool, a *viewAccum, elems map[K]*viewElem, k K, alias func(trace.LogView)) {
	elem := elems[k]
	if elem == nil {
		elem = &viewElem{cursors: make([]int, len(a.parts)), epochs: make([]uint64, len(a.parts))}
		elems[k] = elem
	}
	// own replaces the view-owned log (log == nil: the element aliases a
	// server's) and notes how far into every server's log the view is.
	own := func(log *trace.Log) {
		if elem.log != nil && elem.log != log {
			elem.log.Discard()
		}
		elem.log = log
		for si, part := range a.parts {
			elem.cursors[si] = part.Len()
			elem.epochs[si] = a.epochs[si]
		}
	}
	rebase := func() {
		log := trace.NewLog(&p.view.logs)
		for _, part := range a.parts {
			log.AppendFrom(part, 0)
		}
		alias(log.View())
		own(log)
	}
	if p.opt.DisableDeltaView {
		// Legacy path: a full copy of every changed element.
		rebase()
		return
	}
	holder := -1
	holders := 0
	for si, part := range a.parts {
		if part.Len() > 0 {
			holder = si
			holders++
		}
	}
	switch holders {
	case 0:
		return
	case 1:
		// Single server: alias its log; nothing is copied.
		alias(a.parts[holder])
		own(nil)
		return
	}
	ok := elem.log != nil
	if ok {
		for si, part := range a.parts {
			if elem.cursors[si] > part.Len() || (elem.cursors[si] > 0 && elem.epochs[si] != a.epochs[si]) {
				ok = false // a server rebased or shrank under the cursor
				break
			}
		}
	}
	if !ok {
		// First multi-server sighting (or a server-side rebase): the view
		// element moves to a fresh owned log, which bumps its epoch — the
		// one analysis pass after a rebase runs batch, then the log is
		// warm again.
		rebase()
		p.met.ViewEpochRebases.Inc()
		return
	}
	for si, part := range a.parts {
		if elem.cursors[si] < part.Len() {
			elem.log.AppendFrom(part, elem.cursors[si])
			p.met.ViewCursorAdvances.Inc()
		}
	}
	alias(elem.log.View())
	own(elem.log)
}

// WindowResults runs the periodic per-window analysis and concatenates
// the results in time order: the online view of the run. Each window
// [k·(period−overlap), k·(period−overlap)+period) is analyzed
// independently, exactly like a server waking up each period. The
// analysis runs over the incrementally merged view with a persistent
// analyzer, so repeated calls re-do work only for the elements (and
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
	if to <= 0 {
		to = math.MaxInt64
	}
	p.drainAll()
	p.amu.Lock()
	defer p.amu.Unlock()
	g := p.refreshView()
	_, maxEnd, ok := g.Bounds()
	if !ok || maxEnd <= 0 {
		return nil
	}
	stride := int64(p.opt.Period - p.opt.Overlap)
	if stride <= 0 {
		stride = int64(p.opt.Period)
	}
	var out []*WindowResult
	for start := int64(0); start < maxEnd; start += stride {
		end := start + int64(p.opt.Period)
		if end <= from || start >= to {
			continue
		}
		// Element span bounds reject empty windows without touching
		// fragments (the old path re-scanned every fragment per window).
		if !g.Overlaps(start, end) {
			continue
		}
		// Windows covering a loss interval mark the rank stale there
		// instead of mistaking its silence for speed.
		dopt := p.opt.Detect
		dopt.Outages = p.seq.Outages()
		res := p.an.RunWindow(g, p.ranks, dopt, start, end)
		out = append(out, &WindowResult{
			Start:  sim.Time(start),
			End:    sim.Time(end),
			Result: res,
		})
	}
	p.met.Trace.CompleteAnalyze()
	return out
}

// RunWindow analyzes one explicit window over the incrementally merged
// view: drain the servers, fold their growth into the view (delta
// appends for warm elements), and run the persistent analyzer. This is
// the steady-state tick a driver loop pays per period — with warm
// elements it costs O(new data), not O(resident fragments).
func (p *Pool) RunWindow(start, end int64) *detect.Result {
	dopt := p.opt.Detect
	dopt.Outages = p.seq.Outages()
	return p.runWindowWith(start, end, p.ranks, dopt)
}

// runWindowWith is RunWindow with the rank axis and detection options
// (outage set included) supplied by the caller. The sharded tier passes
// the union of every shard's loss intervals, so a rank's staleness lands
// in its owner's strip even when the batch that exposed the loss
// arrived misrouted elsewhere; a Monitor passes its own MonitorOptions'
// rank count and detection options, which is how its windows run on the
// pool's resident data instead of a copy.
func (p *Pool) runWindowWith(start, end int64, ranks int, dopt detect.Options) *detect.Result {
	p.drainAll()
	p.amu.Lock()
	defer p.amu.Unlock()
	g := p.refreshView()
	res := p.an.RunWindow(g, ranks, dopt, start, end)
	// Journeys drained before this tick are now visible to analysis.
	p.met.Trace.CompleteAnalyze()
	return res
}

// viewBounds drains the servers, folds their growth into the merged
// view, and returns the view's fragment span. The sharded tier uses it
// to lay out a global window grid across planes.
func (p *Pool) viewBounds() (minStart, maxEnd int64, ok bool) {
	p.drainAll()
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
	return p.view.graph.Overlaps(start, end)
}

// WindowResult is one analysis period's outcome.
type WindowResult struct {
	Start, End sim.Time
	Result     *detect.Result
}

// Stats summarizes a pool's transport volume.
type Stats struct {
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
	p.drainAll()
	st := Stats{Servers: len(p.servers)}
	for _, s := range p.servers {
		s.mu.Lock()
		st.Fragments += s.graph.NumFragments()
		st.BytesIn += s.bytesIn
		st.Batches += s.batches
		s.mu.Unlock()
	}
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
