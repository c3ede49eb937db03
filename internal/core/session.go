// Package core wires the substrates and analysis layers into end-to-end
// Vapro sessions: place an application on a simulated machine under a
// noise schedule, run it plain (baseline timing) or traced (Vapro
// attached), collect fragments through the server pool, and expose
// detection and progressive diagnosis over the results. The public
// vapro package at the repository root re-exports this API.
package core

import (
	"fmt"

	"vapro/internal/apps"
	"vapro/internal/cluster"
	"vapro/internal/collector"
	"vapro/internal/detect"
	"vapro/internal/diagnose"
	"vapro/internal/interpose"
	"vapro/internal/mpi"
	"vapro/internal/noise"
	"vapro/internal/rt"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
	"vapro/internal/vfs"
	"vapro/internal/wal"
)

// Options configures a session.
type Options struct {
	// Ranks overrides the app's default process/thread count.
	Ranks int
	// CoresPerNode sizes nodes (default 24; threaded apps get one node
	// with exactly Ranks cores).
	CoresPerNode int
	// Seed drives all randomness.
	Seed uint64
	// Noise is the injected-noise schedule (nil = quiet machine).
	Noise *noise.Schedule
	// Interpose configures the data-collection layer.
	Interpose interpose.Options
	// Collector configures the server pool.
	Collector collector.Options
	// BufferedIO enables the client-side file buffer (the RAxML fix).
	BufferedIO bool
	// PMUJitter overrides the counter-read jitter (default 0.002).
	PMUJitter float64
	// Journal, when set, records a traced run: every batch the ranks
	// deliver is journaled, in staging order, as the frame a wire server
	// would journal, so AnalyzeJournal reads it back like a served
	// stream. The caller opens and closes it.
	Journal *wal.Log
}

// DefaultOptions returns the evaluation configuration.
func DefaultOptions() Options {
	return Options{
		Seed:      1,
		Interpose: interpose.DefaultOptions(),
		Collector: collector.DefaultOptions(),
		PMUJitter: 0.002,
	}
}

// setup builds the machine, environment, world and FS for a run.
func setup(app apps.App, opt *Options) (*mpi.World, *vfs.FS, int) {
	info := app.Info()
	ranks := opt.Ranks
	if ranks <= 0 {
		ranks = info.DefaultRanks
	}
	if ranks <= 0 {
		ranks = 16
	}
	cores := opt.CoresPerNode
	if cores <= 0 {
		cores = 24
	}
	var mcfg sim.Config
	if info.Threaded {
		mcfg = sim.Config{Nodes: 1, CoresPerNode: ranks, FreqGHz: 2.3, PMUJitter: opt.PMUJitter, Seed: opt.Seed}
	} else {
		nodes := (ranks + cores - 1) / cores
		mcfg = sim.Config{Nodes: nodes, CoresPerNode: cores, FreqGHz: 2.2, PMUJitter: opt.PMUJitter, Seed: opt.Seed}
	}
	var env sim.Environment = sim.IdealEnv{}
	if opt.Noise != nil {
		env = opt.Noise
	}
	machine := sim.NewMachine(mcfg)
	world := mpi.NewWorld(ranks, machine, env)
	var fs *vfs.FS
	if info.UsesIO {
		fs = vfs.New(env, opt.Seed)
		app.Prepare(fs, ranks)
	} else {
		app.Prepare(nil, ranks)
	}
	return world, fs, ranks
}

// PlainResult is the outcome of an untraced baseline run.
type PlainResult struct {
	Ranks     int
	Makespan  sim.Duration
	RankTimes []sim.Time
}

// RunPlain executes the application without Vapro attached and returns
// the baseline timing (the denominator of Table 1's overhead).
func RunPlain(app apps.App, opt Options) *PlainResult {
	world, fs, ranks := setup(app, &opt)
	cfg := rt.Config{FS: fs, BufferedIO: opt.BufferedIO}
	times := world.Run(func(r *mpi.Rank) {
		app.Run(rt.NewPlain(r, cfg))
	})
	return &PlainResult{Ranks: ranks, Makespan: makespan(times), RankTimes: times}
}

// Result is the outcome of a traced (Vapro-attached) run.
type Result struct {
	App       apps.Info
	Ranks     int
	Makespan  sim.Duration
	RankTimes []sim.Time
	// Pool is the server pool holding the collected fragments.
	Pool *collector.Pool
	// Graph is the merged whole-run STG.
	Graph *stg.Graph
	// Detection is the whole-run detection result.
	Detection *detect.Result
	// Events / Dropped aggregate the interposition layer's work across
	// ranks.
	Events, Dropped int
	// SiteNames maps state keys to human-readable call-sites.
	SiteNames map[uint64]string

	clusterOpt cluster.Options
	// analyzer memoizes per-element clusterings: the whole-run
	// detection pass populates it, and the diagnosis drill-down paths
	// (regionClusters, FixedClusters) reuse those clusterings instead
	// of re-running Algorithm 1 per call.
	analyzer *detect.Analyzer
}

// clusterElement returns the (memoized) clustering of one STG element.
func (r *Result) clusterElement(key cluster.Key, el *stg.Element) cluster.Result {
	if r.analyzer == nil {
		r.analyzer = detect.NewAnalyzer()
	}
	return r.analyzer.Cache().Run(key, el.Gen, el.Log(), r.clusterOpt)
}

// RunTraced executes the application with Vapro attached: interposition,
// collection through the server pool, then a whole-run detection pass.
func RunTraced(app apps.App, opt Options) *Result {
	return runTraced(app, opt, nil)
}

// runTraced is the one traced-run harness: the ranks deliver to the
// pool. attach, when non-nil, runs before the first delivery (the
// online monitor attaches to the pool there).
func runTraced(app apps.App, opt Options, attach func(pool *collector.Pool, ranks int)) *Result {
	world, fs, ranks := setup(app, &opt)
	pool := collector.NewPool(ranks, opt.Collector)
	if opt.Journal != nil {
		pool.AttachJournal(opt.Journal)
	}
	if attach != nil {
		attach(pool, ranks)
	}
	cfg := rt.Config{FS: fs, BufferedIO: opt.BufferedIO}

	type rankStats struct {
		events, dropped int
		sites           map[uint64]string
	}
	stats := make([]rankStats, ranks)

	times := world.Run(func(r *mpi.Rank) {
		tr := interpose.NewTraced(r, cfg, opt.Interpose, pool, pool.Armed)
		tr.SetMetrics(pool.Metrics().Client)
		app.Run(tr)
		tr.Flush()
		stats[r.ID()] = rankStats{
			events:  tr.Events,
			dropped: tr.Dropped,
			sites:   tr.SiteNames(),
		}
	})

	res := &Result{
		App:        app.Info(),
		Ranks:      ranks,
		Makespan:   makespan(times),
		RankTimes:  times,
		Pool:       pool,
		SiteNames:  make(map[uint64]string),
		clusterOpt: opt.Collector.Detect.Cluster,
	}
	for i := range stats {
		res.Events += stats[i].events
		res.Dropped += stats[i].dropped
		for k, v := range stats[i].sites {
			res.SiteNames[k] = v
		}
	}
	res.analyze(opt.Collector.Detect)
	return res
}

// analyze builds the whole-run graph from the result's pool, names its
// call-sites and runs the whole-run detection pass.
func (r *Result) analyze(dopt detect.Options) {
	r.Graph = r.Pool.Graph()
	for k, v := range r.SiteNames {
		r.Graph.SetName(k, v)
	}
	r.analyzer = detect.NewAnalyzer()
	r.Detection = r.analyzer.Run(r.Graph, r.Ranks, dopt)
}

// OnlineResult is the outcome of a monitored (online) run: the offline
// Result plus the events the live analysis loop produced while the
// application was still running.
type OnlineResult struct {
	*Result
	Monitor *collector.Monitor
	Events  []collector.Event
}

// RunOnline executes the application with Vapro attached in its
// deployment mode: the collector's monitor analyzes overlapped windows
// while fragments stream in, reports variance regions as events, and
// progressively arms counter groups in response (§4.3) — all before the
// run ends. The returned result also carries the usual whole-run
// analysis for convenience.
func RunOnline(app apps.App, opt Options) *OnlineResult {
	var mon *collector.Monitor
	res := runTraced(app, opt, func(pool *collector.Pool, ranks int) {
		mon = collector.NewMonitor(pool, collector.DefaultMonitorOptions(ranks))
	})
	mon.Flush()
	return &OnlineResult{Result: res, Monitor: mon, Events: mon.Drain()}
}

// Overhead returns the relative slowdown of the traced run against a
// plain baseline of the same configuration.
func (r *Result) Overhead(plain *PlainResult) float64 {
	if plain == nil || plain.Makespan <= 0 {
		return 0
	}
	return float64(r.Makespan-plain.Makespan) / float64(plain.Makespan)
}

// regionClusters re-derives the fixed-workload clusters referenced by a
// region's samples and returns their full fragment populations. The
// per-element clusterings come from the shared cache, so the drill-down
// reuses what the detection pass already computed.
func (r *Result) regionClusters(region *detect.Region) [][]trace.Fragment {
	// Deduplicate cluster references.
	type key struct {
		isEdge  bool
		edge    trace.EdgeKey
		vertex  uint64
		cluster int
	}
	seen := make(map[key]bool)
	var out [][]trace.Fragment
	for _, s := range region.Samples {
		k := key{s.ClusterRef.IsEdge, s.ClusterRef.Edge, s.ClusterRef.Vertex, s.ClusterRef.Cluster}
		if seen[k] {
			continue
		}
		seen[k] = true
		var el *stg.Element
		var ckey cluster.Key
		if k.isEdge {
			if e := r.Graph.Edge(k.edge); e != nil {
				el, ckey = &e.Element, cluster.EdgeKey(k.edge)
			}
		} else if v := r.Graph.Vertex(k.vertex); v != nil {
			el, ckey = &v.Element, cluster.VertexKey(k.vertex)
		}
		if el == nil {
			continue
		}
		cl := r.clusterElement(ckey, el)
		if k.cluster < 0 || k.cluster >= len(cl.Clusters) {
			continue
		}
		members := make([]int32, 0, cl.Clusters[k.cluster].Size)
		for i := range cl.Len() {
			if cl.ClusterOf(i) == k.cluster {
				members = append(members, int32(i))
			}
		}
		if len(members) > 0 {
			out = append(out, el.Log().PickByTime(members))
		}
	}
	return out
}

// Diagnose runs the progressive variance diagnosis on a detected region.
func (r *Result) Diagnose(region *detect.Region, opt diagnose.Options) *diagnose.Report {
	clusters := r.regionClusters(region)
	return diagnose.New(opt).Run(clusters, nil)
}

// DiagnoseTop diagnoses the most impactful detected region of the given
// class, or returns nil when nothing was detected.
func (r *Result) DiagnoseTop(class detect.Class, opt diagnose.Options) *diagnose.Report {
	for i := range r.Detection.Regions {
		if r.Detection.Regions[i].Class == class {
			return r.Diagnose(&r.Detection.Regions[i], opt)
		}
	}
	return nil
}

// FixedClusters returns the full fragment populations of every fixed
// (repeated) workload cluster of the given class — the comparable
// populations diagnosis operates on.
func (r *Result) FixedClusters(class detect.Class) [][]trace.Fragment {
	var clusters [][]trace.Fragment
	collect := func(key cluster.Key, el *stg.Element) {
		log := el.Log()
		cl := r.clusterElement(key, el)
		for ci, members := range cl.Groups() {
			if cl.Clusters[ci].Fixed {
				clusters = append(clusters, log.PickByTime(members))
			}
		}
	}
	if class == detect.Computation {
		for _, e := range r.Graph.Edges() {
			collect(cluster.EdgeKey(e.Key), &e.Element)
		}
	} else {
		for _, v := range r.Graph.Vertices() {
			if log := v.Log(); log.Len() > 0 && detect.ClassOf(log.Kind(0)) == class {
				collect(cluster.VertexKey(v.Key), &v.Element)
			}
		}
	}
	return clusters
}

// DiagnoseAll pools every fixed cluster of a class (not just a detected
// region) — used when variance is spread across the whole run, like the
// HPL hardware-bug case.
func (r *Result) DiagnoseAll(class detect.Class, opt diagnose.Options) *diagnose.Report {
	return diagnose.New(opt).Run(r.FixedClusters(class), nil)
}

// Summary renders a one-paragraph report of the run.
func (r *Result) Summary() string {
	st := r.Graph.Stats()
	return fmt.Sprintf(
		"%s: %d ranks, makespan %s; STG %d vertices / %d edges; %d fragments (%d comp, %d comm, %d io); coverage %.1f%%; %d regions detected",
		r.App.Name, r.Ranks, r.Makespan, st.Vertices, st.Edges,
		r.Graph.NumFragments(), st.CompFragments, st.CommFragments, st.IOFragments,
		100*r.Detection.OverallCoverage, len(r.Detection.Regions))
}

func makespan(times []sim.Time) sim.Duration {
	var max sim.Time
	for _, t := range times {
		if t > max {
			max = t
		}
	}
	return sim.Duration(max)
}
