package collector

import (
	"slices"
	"sync"

	"vapro/internal/cluster"
	"vapro/internal/detect"
	"vapro/internal/diagnose"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// Monitor is the online analysis loop of Figure 8: as fragment batches
// stream in, it watches the virtual-time watermark, analyzes each
// completed (overlapped) window, reports detected variance immediately,
// and — when a window shows variance — progressively widens the armed
// counter groups so subsequent windows carry the counters the next
// diagnosis stage needs. This is the deployment mode of the real tool;
// the whole-run analysis in core.RunTraced is the offline equivalent.
//
// A monitor fronts one Pool of n ≥ 1 planes. It holds O(ranks) state
// of its own — the watermark and the event queue; the warm regression
// moments live in the planes' analyzers. Fragments are resident exactly
// once, in the planes' element logs, and a closed window runs as the
// pool's RunWindow, inline on the delivering goroutine; its regions may
// straddle planes.
// A tick sees everything the planes had staged when they drained — a
// superset of the batches whose watermark update has run, and exactly
// those batches when delivery is serialised (one feeder, or the wire
// server's journal lock).
//
// The windows (period, overlap, detection options, rank count) are the
// pool's Options. Wrap it around a Pool as the interpose.Sink:
//
//	pool := collector.NewPool(ranks, copt)
//	mon := collector.NewMonitor(pool, mopt)
//	... use mon as the sink for traced ranks ...
//	events := mon.Drain()
//
// or feed each plane's wire server from WireSink(shard).
type Monitor struct {
	// pool holds the resident fragments and the arming handle.
	pool *Pool
	opt  MonitorOptions

	// mu guards the watermark, the window cursor, the event queue and
	// the arming stage. Ticks run inline on the delivering goroutine
	// with mu held. Lock order: mu → a plane's amu (DiagnoseEvent takes
	// every plane's, in plane order).
	mu        sync.Mutex
	marks     watermark
	nextStart sim.Time
	events    []Event
	stage     int

	// olsFactors is the factor set every plane's analyzer keeps warm
	// per-cluster regression moments over (see monitor_ols.go).
	olsFactors []diagnose.Factor
}

// MonitorOptions configures the online loop's reporting. The windows
// themselves are the pool's: NewPool's or NewShardedPool's Options.
type MonitorOptions struct {
	// Deprecated: the monitor waits for its planes' provisioned ranks;
	// this field is read nowhere.
	Ranks int
	// Deprecated: windows are the planes' Options.Period and
	// Options.Overlap; these fields are read nowhere.
	Period, Overlap sim.Duration
	// Deprecated: windows run with the planes' Options.Detect; this
	// field is read nowhere.
	Detect detect.Options
	// MinRegionLoss filters reported regions: a region must have lost
	// at least this much time to trigger an event.
	MinRegionLoss sim.Duration
	// Classes selects which fragment classes may trigger events.
	// Defaults to computation and IO: communication "performance" is
	// elapsed-based and therefore wait-dominated (§3.3), which makes
	// it too jittery for unattended alerting; opt in explicitly when
	// network variance is the target.
	Classes []detect.Class
	// MaxStage caps how far the progressive arming may descend.
	MaxStage int
}

// DefaultMonitorOptions returns the reporting defaults. The rank count
// is unused: the monitor takes it from its planes.
func DefaultMonitorOptions(int) MonitorOptions {
	return MonitorOptions{
		MinRegionLoss: 10 * sim.Millisecond,
		MaxStage:      3,
		Classes:       []detect.Class{detect.Computation, detect.IOClass},
	}
}

// normalized fills the reporting defaults.
func (opt MonitorOptions) normalized() MonitorOptions {
	if opt.MaxStage <= 0 {
		opt.MaxStage = 3
	}
	return opt
}

// Event is one online finding: a window analysis that detected variance,
// plus the counter-group action the monitor took in response.
type Event struct {
	WindowStart, WindowEnd sim.Time
	Regions                []detect.Region
	// ArmedAfter is the counter-group set active after this event
	// (widened when the monitor escalated a diagnosis stage).
	ArmedAfter sim.Group
	// Stage is the progressive stage the monitor is at after the event.
	Stage int
}

// ShardedMonitor is the name the benchmark harness still compiles
// against.
//
// Deprecated: use Monitor, which fronts a pool of any plane count.
type ShardedMonitor = Monitor

// NewMonitor wraps pool with an online analysis loop: it tracks the
// global watermark across every rank (whichever plane the rank reports
// through) and ticks the pool's windows.
func NewMonitor(pool *Pool, opt MonitorOptions) *Monitor {
	opt = opt.normalized()
	m := &Monitor{
		pool:       pool,
		opt:        opt,
		marks:      newWatermark(pool.ranks),
		stage:      1,
		olsFactors: olsFactorsFor(opt.MaxStage),
	}
	for _, pl := range pool.planes {
		pl.amu.Lock()
		pl.an.SetOLSFactors(m.olsFactors)
		pl.amu.Unlock()
	}
	return m
}

// NewShardedMonitor is the name the benchmark harness still compiles
// against.
//
// Deprecated: use NewMonitor, which fronts a pool of any plane count.
func NewShardedMonitor(pool *Pool, opt MonitorOptions) *Monitor { return NewMonitor(pool, opt) }

// Metrics returns the surface a wire server counts into when the
// monitor itself is its sink: the pool's.
func (m *Monitor) Metrics() *Metrics { return m.pool.Metrics() }

// SeqState returns the pool's direct-sink sequence tracker (see
// Pool.SeqState), so a wire server with a Monitor sink accumulates gap
// accounting across restarts.
func (m *Monitor) SeqState() *SeqTracker { return m.pool.SeqState() }

// Journal returns the pool's direct-sink delivery journal (see
// Pool.Journal), so a wire server with a Monitor sink journals exactly
// what it delivers.
func (m *Monitor) Journal() *wal.Log { return m.pool.Journal() }

// Consume implements interpose.Sink: forward to the pool (whose owning
// plane takes its one copy of the batch), advance the rank watermark,
// and analyze any window every rank has passed.
func (m *Monitor) Consume(rank int, frags []trace.Fragment) {
	m.pool.Consume(rank, frags)
	m.observe(rank, frags)
}

// ConsumeSized mirrors Consume for the wire path: the plane books the
// payload size the wire server measured instead of re-encoding the
// batch.
func (m *Monitor) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	m.pool.ConsumeSized(rank, frags, bytes)
	m.observe(rank, frags)
}

// ConsumeTraced mirrors ConsumeSized for sampled traced batches: the
// provenance context rides through the plane's staging path while the
// monitor's own half proceeds unchanged.
func (m *Monitor) ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx) {
	m.pool.ConsumeTraced(rank, frags, bytes, tc)
	m.observe(rank, frags)
}

// WireSink returns the sink one plane's wire server feeds: delivery
// goes to that plane, the watermark advances globally, and the hello
// carries the pool's shard map.
func (m *Monitor) WireSink(shard int) *ShardSink {
	k := m.pool.WireSink(shard)
	k.mon = m
	return k
}

// observe advances rank's watermark by one delivered batch and analyzes
// every window whose end the minimum across ranks has passed.
func (m *Monitor) observe(rank int, frags []trace.Fragment) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.marks.observe(rank, frags)
	for m.marks.low() >= m.nextStart.Add(m.pool.opt.Period) {
		m.analyzeNextLocked()
	}
}

// analyzeNextLocked runs the window at the cursor, reports its regions
// and moves the cursor one stride on. Clustering is memoized per
// element across the overlapped windows (and normalization uses each
// element's full population, so the per-window reference performance
// is the best fragment seen so far, not just the window's best); the
// window only filters which samples feed the heat map.
func (m *Monitor) analyzeNextLocked() {
	win := m.pool.opt
	start, end := m.nextStart, m.nextStart.Add(win.Period)
	m.nextStart = start.Add(win.Period - win.Overlap)
	res := m.pool.RunWindow(int64(start), int64(end))
	var regions []detect.Region
	for _, reg := range res.Regions {
		if (len(m.opt.Classes) == 0 || slices.Contains(m.opt.Classes, reg.Class)) &&
			sim.Duration(reg.LossNS) >= m.opt.MinRegionLoss {
			regions = append(regions, reg)
		}
	}
	if len(regions) == 0 {
		return
	}
	// Variance in this window: escalate one diagnosis stage by arming
	// the next counter groups, so the following windows carry the data
	// the finer factors need (§4.3's one-period-per-stage trade-off).
	if m.stage < m.opt.MaxStage {
		m.stage++
		armed := m.pool.Armed.Get()
		switch m.stage {
		case 2:
			armed |= sim.GroupBackend
		default:
			armed |= sim.GroupMemory | sim.GroupExtra
		}
		m.pool.Armed.Set(armed)
	}
	m.events = append(m.events, Event{
		WindowStart: start,
		WindowEnd:   end,
		Regions:     regions,
		ArmedAfter:  m.pool.Armed.Get(),
		Stage:       m.stage,
	})
}

// Flush analyzes any remaining partial window at the end of the run.
func (m *Monitor) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.nextStart < m.marks.high() {
		m.analyzeNextLocked()
	}
}

// Drain returns the events recorded so far and clears the queue.
func (m *Monitor) Drain() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.events
	m.events = nil
	return out
}

// Stage returns the current progressive stage (1 until variance is
// first detected).
func (m *Monitor) Stage() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stage
}

// CacheStats reports the hit/miss counters of the memoized clustering
// layer window analyses run on, summed over the planes: hits are
// analyses that reused a previous window's clustering of an element
// that did not grow in between.
func (m *Monitor) CacheStats() (hits, misses uint64) {
	for _, pl := range m.pool.planes {
		h, ms := pl.an.Cache().Stats()
		hits, misses = hits+h, misses+ms
	}
	return hits, misses
}

// DiagnoseEvent runs the progressive diagnosis for an online event's
// top region against everything the planes hold at the time of the
// call. Fragments are clustered per STG element — the edge of a
// computation sample, the vertex of a communication or IO one — reusing
// the clusterings the window analyses already memoized, so only
// comparable fixed-workload populations are differenced: mixing
// workload classes would misattribute their intrinsic differences as
// variance.
func (m *Monitor) DiagnoseEvent(ev *Event, opt diagnose.Options) *diagnose.Report {
	if len(ev.Regions) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	views := m.pool.lockPlanes()
	defer m.pool.unlockPlanes()
	elems, clusters := m.eventClusters(views, ev)
	// When every involved element is an edge with warm regression
	// moments at the current generation, the §4.2 quantification answers
	// from them instead of refitting over the resident populations;
	// otherwise the default batch QuantifyOLS runs unchanged.
	if q := m.streamQuantifier(elems); q != nil {
		opt.Quantifier = q
	}
	return diagnose.New(opt).Run(diagnose.SliceSource(clusters))
}

// planeElem is an STG element of one plane's view, at the generation
// the view holds.
type planeElem struct {
	plane int
	key   cluster.Key
	gen   stg.Gen
}

// eventClusters collects the populations an event's diagnosis
// differences: for each element its top region's samples name, every
// Fixed cluster of that element, taken from the plane that owns the
// sample's rank (whose rows the merge kept). Caller holds m.mu and the
// planes' amu; views are the planes' refreshed views.
func (m *Monitor) eventClusters(views []*stg.Graph, ev *Event) ([]planeElem, [][]trace.Fragment) {
	var elems []planeElem
	var clusters [][]trace.Fragment
	type planeKey struct {
		plane int
		key   cluster.Key
	}
	seen := map[planeKey]bool{}
	for _, s := range ev.Regions[0].Samples {
		ref := s.ClusterRef
		k := planeKey{m.pool.Owner(s.Rank), cluster.VertexKey(ref.Vertex)}
		if ref.IsEdge {
			k.key = cluster.EdgeKey(ref.Edge)
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		var gen stg.Gen
		var log trace.LogView
		if ref.IsEdge {
			e := views[k.plane].Edge(ref.Edge)
			if e == nil {
				continue
			}
			gen, log = e.Gen, e.Log()
		} else {
			v := views[k.plane].Vertex(ref.Vertex)
			if v == nil {
				continue
			}
			gen, log = v.Gen, v.Log()
		}
		elems = append(elems, planeElem{k.plane, k.key, gen})
		pl := m.pool.planes[k.plane]
		cl := pl.an.Cache().Run(k.key, gen, log, pl.opt.Detect.Cluster)
		for ci, members := range cl.Groups() {
			if cl.Clusters[ci].Fixed {
				clusters = append(clusters, log.PickByTime(members))
			}
		}
	}
	return elems, clusters
}
