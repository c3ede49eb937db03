package collector

import (
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
// The monitor holds O(ranks) state of its own — the watermark, the
// event queue and the warm regression moments. Fragments are resident
// exactly once, in the pool's server logs: a closed window runs on the
// pool's merged view with the pool's persistent analyzer, the same
// plane Pool.RunWindow and WindowResults use. A tick therefore sees
// everything the pool had staged when it drained — a superset of the
// batches whose watermark update has run, and exactly those batches
// when delivery is serialised (one feeder, or the wire server's journal
// lock).
//
// Wrap it around a Pool as the interpose.Sink:
//
//	pool := collector.NewPool(ranks, copt)
//	mon := collector.NewMonitor(pool, mopt)
//	... use mon as the sink for traced ranks ...
//	events := mon.Drain()
type Monitor struct {
	pool *Pool
	// windowLoop carries the watermark, the window cursor, the event
	// queue and the arming stage under its mu. Lock order is mu → the
	// pool's amu: ticks run inline on the delivering goroutine with mu
	// held, and take amu inside Pool.runWindowWith.
	windowLoop

	// olsStreams holds each edge's warm per-cluster regression moments
	// (see monitor_ols.go), maintained by the pool analyzer's
	// cluster-delta hook. The map is guarded by olsMu, NOT mu — the hook
	// fires from the window analysis's worker pool while a tick holds mu
	// — and each element's moments by its own lock. Lock order:
	// mu → p.amu → olsMu → elemMoments.mu.
	olsMu      sync.Mutex
	olsStreams map[cluster.Key]*elemMoments
	olsFactors []diagnose.Factor
}

// MonitorOptions configures the online loop.
type MonitorOptions struct {
	// Ranks the monitor waits for before closing a window.
	Ranks int
	// Period and Overlap mirror the pool's analysis windows.
	Period, Overlap sim.Duration
	// Detect configures the per-window analysis.
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

// DefaultMonitorOptions mirrors the offline defaults.
func DefaultMonitorOptions(ranks int) MonitorOptions {
	o := DefaultOptions()
	return MonitorOptions{
		Ranks:         ranks,
		Period:        o.Period,
		Overlap:       o.Overlap,
		Detect:        o.Detect,
		MinRegionLoss: 10 * sim.Millisecond,
		MaxStage:      3,
		Classes:       []detect.Class{detect.Computation, detect.IOClass},
	}
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

// NewMonitor wraps pool with an online analysis loop.
func NewMonitor(pool *Pool, opt MonitorOptions) *Monitor {
	opt = opt.normalized(pool.ranks)
	m := &Monitor{
		pool:       pool,
		olsStreams: make(map[cluster.Key]*elemMoments),
		olsFactors: olsFactorsFor(opt.MaxStage),
	}
	// Clustering is memoized per element across the overlapped windows
	// (and normalization uses each element's full population, so the
	// per-window reference performance is the best fragment seen so
	// far, not just the window's best); the window only filters which
	// samples feed the heat map.
	m.windowLoop = newWindowLoop(opt, pool.Armed, func(start, end int64) *detect.Result {
		dopt := opt.Detect
		dopt.Outages = pool.seq.Outages()
		return pool.runWindowWith(start, end, opt.Ranks, dopt)
	})
	pool.amu.Lock()
	pool.an.SetClusterDeltaHook(m.observeClustering)
	pool.amu.Unlock()
	return m
}

// Metrics returns the observability surface shared with the wrapped
// pool; the wire server counts into it when a Monitor is the sink.
func (m *Monitor) Metrics() *Metrics { return m.pool.met }

// SeqState forwards the pool's sequence tracker so a wire server with a
// Monitor sink still accumulates gap accounting across restarts.
func (m *Monitor) SeqState() *SeqTracker { return m.pool.seq }

// Journal forwards the pool's delivery journal so a wire server with a
// Monitor sink journals exactly what it delivers.
func (m *Monitor) Journal() *wal.Log { return m.pool.Journal() }

// Consume implements interpose.Sink: forward to the pool (which takes
// its one copy of the batch), advance the rank watermark, and analyze
// any window every rank has passed.
func (m *Monitor) Consume(rank int, frags []trace.Fragment) {
	m.pool.Consume(rank, frags)
	m.observe(rank, frags)
}

// ConsumeSized mirrors Consume for the wire path: the pool books the
// payload size the wire server measured instead of re-encoding the
// batch.
func (m *Monitor) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	m.pool.ConsumeSized(rank, frags, bytes)
	m.observe(rank, frags)
}

// ConsumeTraced mirrors ConsumeSized for sampled traced batches: the
// provenance context rides through the pool's staging path while the
// monitor's own half proceeds unchanged.
func (m *Monitor) ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx) {
	m.pool.ConsumeTraced(rank, frags, bytes, tc)
	m.observe(rank, frags)
}

// CacheStats reports the hit/miss counters of the memoized clustering
// layer window analyses run on (the pool's): hits are analyses that
// reused a previous window's clustering of an element that did not grow
// in between.
func (m *Monitor) CacheStats() (hits, misses uint64) {
	return m.pool.an.Cache().Stats()
}

// DiagnoseEvent runs the progressive diagnosis for an online event's
// top region against everything the pool holds at the time of the call.
// Fragments are clustered per edge (reusing the clusterings the window
// analyses already memoized) so only comparable fixed-workload
// populations are differenced — mixing workload classes would
// misattribute their intrinsic differences as variance.
func (m *Monitor) DiagnoseEvent(ev *Event, opt diagnose.Options) *diagnose.Report {
	if len(ev.Regions) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.pool
	p.drainAll()
	p.amu.Lock()
	defer p.amu.Unlock()
	g := p.refreshView()
	var clusters [][]trace.Fragment
	var edges []*stg.Edge
	seen := map[trace.EdgeKey]bool{}
	for _, s := range ev.Regions[0].Samples {
		if !s.ClusterRef.IsEdge || seen[s.ClusterRef.Edge] {
			continue
		}
		seen[s.ClusterRef.Edge] = true
		e := g.Edge(s.ClusterRef.Edge)
		if e == nil {
			continue
		}
		edges = append(edges, e)
		log := e.Log()
		cl := p.an.Cache().Run(cluster.EdgeKey(e.Key), e.Gen, log, m.opt.Detect.Cluster)
		for ci := range cl.Clusters {
			if cl.Clusters[ci].Fixed {
				clusters = append(clusters, log.Pick(cl.Clusters[ci].Members))
			}
		}
	}
	// When every involved edge has warm regression moments at the
	// current generation, the §4.2 quantification answers from them
	// instead of refitting over the resident populations; otherwise the
	// default batch QuantifyOLS runs unchanged.
	if q := m.streamQuantifier(edges); q != nil {
		opt.Quantifier = q
	}
	return diagnose.New(opt).Run(diagnose.SliceSource(clusters))
}
