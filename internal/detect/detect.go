// Package detect implements §3.5: performance variance detection over
// fixed-workload fragments. Per cluster, every fragment's performance
// is normalized against the fastest member (1.0 = best); normalized
// values from all clusters are merged — weighted by elapsed time — into
// per-rank, per-window series separately for computation, communication
// and IO; a region-growing pass over the resulting heat map locates
// contiguous low-performance regions and quantifies their impact.
package detect

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vapro/internal/cluster"
	"vapro/internal/diagnose"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// Options configures detection.
type Options struct {
	// Cluster configures the fixed-workload identification.
	Cluster cluster.Options
	// Window is the heat-map time bucket width.
	Window sim.Duration
	// Threshold is the normalized performance below which a cell is a
	// variance candidate (paper: 0.85).
	Threshold float64
	// MinRegionCells discards regions smaller than this many heat-map
	// cells (single-cell blips are usually PMU noise).
	MinRegionCells int
	// Parallelism caps the analysis worker pool: the per-element
	// cluster+normalize stage and the per-class heat-map/region passes
	// fan out across this many goroutines. 0 means GOMAXPROCS, 1 forces
	// the sequential reference path. The result is identical at any
	// setting (elements are sharded and merged in deterministic order).
	Parallelism int
	// Outages are known per-rank data-loss intervals (from the wire
	// transport's sequence-gap accounting). Heat-map cells they cover
	// are marked stale: a rank that went silent because its batches were
	// lost must not be read as fast or slow there, and stale cells never
	// seed or join variance regions.
	Outages []Outage
	// DisableIncremental selects the batch oracle (oracle.go): every
	// element generation change re-clusters and re-normalizes from
	// scratch, every stream is comparison-sorted and regions are grown
	// from nothing. Results are bit-identical either way; this is what
	// the incremental plane is tested and benchmarked against.
	DisableIncremental bool
}

// Outage is one rank's data-loss interval in virtual time: batches
// covering [Start, End) ns were sent but never delivered.
type Outage struct {
	Rank       int
	Start, End int64
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Cluster:        cluster.DefaultOptions(),
		Window:         500 * sim.Millisecond,
		Threshold:      0.85,
		MinRegionCells: 1,
	}
}

// Class selects which fragment population a heat map describes.
type Class int

// Heat-map classes, reported separately as the paper does.
const (
	Computation Class = iota
	Communication
	IOClass
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Computation:
		return "computation"
	case Communication:
		return "communication"
	default:
		return "io"
	}
}

// ClassOf maps a fragment kind to its heat-map class.
func ClassOf(k trace.Kind) Class {
	switch k {
	case trace.Comp, trace.Probe:
		return Computation
	case trace.IO:
		return IOClass
	default:
		return Communication
	}
}

// Sample is one normalized-performance observation.
type Sample struct {
	Rank    int
	Start   int64 // ns
	Elapsed int64 // ns
	Perf    float64
	// Covered marks samples whose snippet repeats within their own
	// rank (the coverage rule); samples that exist only through
	// cross-rank pooling (an init phase, HPL's once-per-rank panels)
	// still support inter-process detection but should be excluded
	// from temporal loss metrics.
	Covered bool
	// ClusterRef identifies the owning cluster for diagnosis drill-down.
	ClusterRef ClusterRef
	// FragIndex is the fragment's row in its edge/vertex fragment log.
	FragIndex int
}

// ClusterRef names a cluster: the STG element plus the cluster index.
type ClusterRef struct {
	IsEdge  bool
	Edge    trace.EdgeKey
	Vertex  uint64
	Cluster int
}

// sampleLess is the total order of the per-class sample streams the
// heat-map and region passes fold over: Start first, ties broken by
// owning element (edges before vertices, then key) and fragment index.
// Start alone is not a total order — exact ties across ranks are
// routine in lockstep SPMD phases — and a total key makes the stream,
// and everything folded over it (heat-map cells, region growing,
// carried-region equality), a pure function of the sample multiset.
// The streams are built in this order, not sorted into it: every span
// index keeps its entries ordered by (start, fragment index), so each
// selection is a run already ordered under sampleLess, and the partial
// merges the runs (runMerger). Only the DisableIncremental oracle
// sorts.
func sampleLess(a, b *Sample) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	ra, rb := &a.ClusterRef, &b.ClusterRef
	if ra.IsEdge != rb.IsEdge {
		return ra.IsEdge
	}
	if ra.Edge != rb.Edge {
		if ra.Edge.From != rb.Edge.From {
			return ra.Edge.From < rb.Edge.From
		}
		return ra.Edge.To < rb.Edge.To
	}
	if ra.Vertex != rb.Vertex {
		return ra.Vertex < rb.Vertex
	}
	return a.FragIndex < b.FragIndex
}

// HeatMap is a rank × window grid of weighted-average normalized
// performance. Cells with no observations hold NaN.
type HeatMap struct {
	Class   Class
	Ranks   int
	Windows int
	Window  sim.Duration
	Origin  sim.Time
	// Cells is row-major: Cells[rank*Windows + win].
	Cells []float64
	// Stale marks cells covered by a known data-loss interval (nil when
	// no outages were reported). Same row-major layout as Cells. A stale
	// cell is neither fast nor slow — the rank's data for that span was
	// lost in transit — so it is excluded from region growing and
	// rendered distinctly.
	Stale []bool
}

// At returns the cell value (NaN if empty).
func (h *HeatMap) At(rank, win int) float64 { return h.Cells[rank*h.Windows+win] }

// StaleAt reports whether the cell lies in a known data-loss interval.
func (h *HeatMap) StaleAt(rank, win int) bool {
	return h.Stale != nil && h.Stale[rank*h.Windows+win]
}

// markStale flags every cell an outage interval touches, each rank's
// row cut at limit(rank) columns (nil: the whole row; a merged map marks
// a row only as far as its owner's stream reaches). Zero-length outages
// (loss at a rank's high-water mark with no later data yet) mark the
// single cell containing their start. An outage that ends at or before
// the origin touches no cell.
func (h *HeatMap) markStale(outages []Outage, limit func(rank int) int) {
	for _, o := range outages {
		if o.Rank < 0 || o.Rank >= h.Ranks {
			continue
		}
		wins := h.Windows
		if limit != nil {
			wins = limit(o.Rank)
		}
		end := o.End
		if end <= o.Start {
			end = o.Start + 1
		}
		if end <= int64(h.Origin) {
			continue // wholly before column 0: the division below would truncate it into it
		}
		w0 := max(int((o.Start-int64(h.Origin))/int64(h.Window)), 0)
		w1 := min(int((end-1-int64(h.Origin))/int64(h.Window)), wins-1)
		if w0 > w1 {
			continue
		}
		if h.Stale == nil {
			h.Stale = make([]bool, len(h.Cells))
		}
		for w := w0; w <= w1; w++ {
			h.Stale[o.Rank*h.Windows+w] = true
		}
	}
}

// Region is a contiguous low-performance area found by region growing.
type Region struct {
	Class    Class
	RankMin  int
	RankMax  int
	WinMin   int
	WinMax   int
	Cells    int
	MeanPerf float64
	// LossNS is the quantified performance loss: Σ (1-perf)·elapsed
	// over the member samples, in ns of lost time.
	LossNS int64
	// Samples are the member observations (for diagnosis).
	Samples []Sample
}

// StartTime returns the virtual start of the region.
func (r *Region) StartTime(h *HeatMap) sim.Time {
	return h.Origin.Add(sim.Duration(r.WinMin) * h.Window)
}

// EndTime returns the virtual end of the region.
func (r *Region) EndTime(h *HeatMap) sim.Time {
	return h.Origin.Add(sim.Duration(r.WinMax+1) * h.Window)
}

// Result is the outcome of a detection pass. A partial (Analyzer.Partial)
// is a Result with nil Maps, Regions and Coverage: the sample streams,
// time sums, cluster counts and origin a Merger completes it from.
type Result struct {
	Maps    map[Class]*HeatMap
	Regions []Region
	// Samples per class (time-ordered), the raw normalized series.
	Samples map[Class][]Sample
	// Coverage is the fraction of total observed time attributable to
	// repeated fixed-workload fragments, per class and overall (§6.2).
	Coverage map[Class]float64
	// TotalTimeNS / FixedTimeNS are the raw per-class elapsed-time sums
	// behind Coverage. The Merger sums them across partials, so a merged
	// coverage equals one global pass over the union of the fragments
	// (exact int64 partials instead of averaged floats).
	TotalTimeNS map[Class]int64
	FixedTimeNS map[Class]int64
	// OverallCoverage weights classes by their total time.
	OverallCoverage float64
	// FixedClusters / SmallClusters count cluster populations.
	FixedClusters, SmallClusters int
	// Origin is the virtual time of the heat maps' first column: the
	// window start of a windowed pass, 0 for a whole-run pass.
	Origin sim.Time
}

// setTimes records the per-class time sums, keeping only the classes
// that saw time.
func (r *Result) setTimes(total, fixed *[numClasses]int64) {
	for c := 0; c < numClasses; c++ {
		if total[c] != 0 || fixed[c] != 0 {
			r.TotalTimeNS[Class(c)] = total[c]
			r.FixedTimeNS[Class(c)] = fixed[c]
		}
	}
}

// Analyzer runs detection passes that share one memoized clustering
// layer: repeated analyses over the same (or a growing) graph — the
// online monitor's overlapped windows, the whole-run pass, diagnosis
// drill-down — re-cluster only the STG elements whose fragment logs
// actually grew (tracked by the elements' generation watermarks).
type Analyzer struct {
	cache *cluster.Cache

	// preps memoizes each element's window-independent analysis (its
	// normalized samples and time indexes) keyed like the clustering
	// cache, so overlapped windows slice precomputed samples instead of
	// re-walking every cluster member per window.
	mu    sync.Mutex
	preps map[cluster.Key]*prepElem

	// merge holds each class's stream-merge scratch; stage-1 results
	// are merged into streams by one worker per class, so the fixed
	// array needs no locking. permuteRuns, set only by tests, rearranges
	// a class's runs before they are merged.
	merge       [numClasses]runMerger
	permuteRuns func(runs []sampleRun) []sampleRun

	// merger is stage 2 over this analyzer's own partial: one part,
	// whose warm region carry threads from pass to pass.
	merger Merger

	// met, when set via SetMetrics, receives per-pass latency and
	// per-stage span observations; clock is its worker-side scratch.
	met   *Metrics
	clock stageClock

	// olsFactors, when set via SetOLSFactors, is the factor set every
	// Fixed cluster of an edge keeps warm regression moments for, in its
	// store state (ClusterMoments reads them).
	olsFactors []diagnose.Factor
}

// NewAnalyzer returns an Analyzer with an empty clustering cache.
func NewAnalyzer() *Analyzer {
	return &Analyzer{cache: cluster.NewCache(), preps: make(map[cluster.Key]*prepElem)}
}

// Cache exposes the memoized clustering layer so sibling passes (the
// diagnosis drill-down in core, the monitor's event diagnosis) reuse
// the same per-element clusterings detection computed.
func (a *Analyzer) Cache() *cluster.Cache { return a.cache }

// SetOLSFactors makes every Fixed cluster of an edge keep §4.2
// regression moments over factors (diagnose.ClusterMoments), folded
// with the cluster's normalization state: a store prep folds each
// appended member once, in the pass that appends it. A prep folded over
// another set is rebuilt by its next pass; nil (the default) keeps no
// moments. The caller serializes it with the analyzer's passes.
func (a *Analyzer) SetOLSFactors(factors []diagnose.Factor) {
	a.olsFactors = factors
}

// ClusterMoments returns the regression moments of the Fixed clusters
// of edge key, in cluster order, when its prep is a sample store at
// exactly gen whose moments were folded over factors; otherwise (no
// prep, the DisableIncremental oracle, another generation, another
// factor set) it returns false. The caller serializes it with the
// analyzer's passes (a plane's analysis lock).
func (a *Analyzer) ClusterMoments(key cluster.Key, gen stg.Gen, factors []diagnose.Factor) ([]*diagnose.ClusterMoments, bool) {
	a.mu.Lock()
	p := a.preps[key]
	a.mu.Unlock()
	if p == nil || p.store == nil || p.gen != gen || len(factors) == 0 || !slices.Equal(p.factors, factors) {
		return nil, false
	}
	out := make([]*diagnose.ClusterMoments, 0, p.fixedClusters)
	for i := range p.store.cstate {
		if cm := p.store.cstate[i].mom; cm != nil {
			out = append(out, cm)
		}
	}
	return out, len(out) == p.fixedClusters
}

// Run clusters every STG edge and vertex of g, normalizes performance
// within each fixed cluster, and builds heat maps and variance regions
// for ranks [0, ranks). It is a convenience wrapper constructing a
// one-shot Analyzer; callers analyzing the same graph repeatedly should
// hold an Analyzer and call its Run method instead.
func Run(g *stg.Graph, ranks int, opt Options) *Result {
	return NewAnalyzer().Run(g, ranks, opt)
}

// Run is the whole-graph detection pass (see the package-level Run).
func (a *Analyzer) Run(g *stg.Graph, ranks int, opt Options) *Result {
	return a.run(g, ranks, opt, math.MinInt64, math.MaxInt64, 0)
}

// RunWindow analyzes only the fragments overlapping [start, end) ns —
// the online monitor's per-window view. Clustering and normalization
// still use each element's full fragment population (memoized across
// windows), so overlapped windows share one clustering per element and
// only elements that grew since the previous window are re-clustered;
// the window merely filters which samples feed the heat map. The heat
// map's Origin is set to start so cells cover the window, not the whole
// run.
func (a *Analyzer) RunWindow(g *stg.Graph, ranks int, opt Options, start, end int64) *Result {
	return a.run(g, ranks, opt, start, end, start)
}

// Partial is a plane's half of RunWindow: stage 1 over every element,
// each class's ordered sample stream, the int64 time sums, the cluster
// counts and the window origin. It builds no heat map and grows no
// region (Maps, Regions and Coverage are nil); a Merger completes one
// or more partials into the Result. The sharded collector tier runs one
// per plane and merges them once, over one grid.
func (a *Analyzer) Partial(g *stg.Graph, opt Options, start, end int64) *Result {
	res, t0, tMap := a.partial(g, opt, start, end, start)
	a.recordPass(t0, tMap)
	return res
}

// elemOut is the per-element partial result of the cluster+normalize
// stage. Samples are referenced, not materialized: runs[c] lists the
// element's class-c selection as runs already ordered under sampleLess,
// in sampleLess order among themselves on equal starts (a store's older
// segments hold the smaller fragment indexes).
type elemOut struct {
	runs          [numClasses][]elemRun
	total, fixed  [numClasses]int64
	fixedClusters int
	smallClusters int
}

// elemDirect is the materialized form of an element's window
// contribution, produced by normalizeElement. The production path uses
// elemOut's referenced samples instead; this form exists for the
// equivalence tests that pin the two paths bit-identical.
type elemDirect struct {
	samples       [numClasses][]Sample
	total, fixed  [numClasses]int64
	fixedClusters int
	smallClusters int
}

const numClasses = 3

func (a *Analyzer) run(g *stg.Graph, ranks int, opt Options, start, end, origin int64) *Result {
	res, t0, tMap := a.partial(g, opt, start, end, origin)
	a.merger.finish(res, []*Result{res}, ranks, nil, opt)
	a.recordPass(t0, tMap)
	return res
}

// recordPass closes a pass's instrumentation: the StageMap span from
// tMap on and the pass latency from t0.
func (a *Analyzer) recordPass(t0, tMap time.Time) {
	if met := a.met; met != nil {
		met.Spans.RecordNS(StageMap, since(tMap))
		met.WindowNS.Observe(since(t0))
		met.Windows.Inc()
	}
}

// partial runs stage 1 and builds the class streams; t0 and tMap are
// the pass's start and its stream stage's start (zero without metrics).
func (a *Analyzer) partial(g *stg.Graph, opt Options, start, end, origin int64) (res *Result, t0, tMap time.Time) {
	res = &Result{
		Samples:     make(map[Class][]Sample),
		TotalTimeNS: make(map[Class]int64),
		FixedTimeNS: make(map[Class]int64),
		Origin:      sim.Time(origin),
	}
	met := a.met
	if met != nil {
		t0 = time.Now()
		a.clock.reset()
	}

	// Stage 1: per-element cluster+normalize, sharded across workers.
	// Elements are independent; outputs land in a slot per element.
	edges := g.Edges()
	verts := g.Vertices()
	outs := make([]elemOut, len(edges)+len(verts))
	forEach(len(outs), opt.Parallelism, func(i int) {
		if i < len(edges) {
			e := edges[i]
			p := a.prepFor(cluster.EdgeKey(e.Key), e.Gen, e.Log(), opt, ClusterRef{IsEdge: true, Edge: e.Key})
			p.window(start, end, &outs[i])
		} else {
			v := verts[i-len(edges)]
			p := a.prepFor(cluster.VertexKey(v.Key), v.Gen, v.Log(), opt, ClusterRef{Vertex: v.Key})
			p.window(start, end, &outs[i])
		}
	})

	var tMerge time.Time
	if met != nil {
		met.Spans.RecordNS(StagePrep, since(t0))
		met.Spans.RecordNS(StageCluster, a.clock.clusterNS.Load())
		met.Spans.RecordNS(StageNormalize, a.clock.normNS.Load())
		tMerge = time.Now()
	}

	// Partials sum in element order; the sample counts size each
	// class's stream exactly.
	var total, fixed [numClasses]int64
	var counts [numClasses]int
	for i := range outs {
		o := &outs[i]
		res.FixedClusters += o.fixedClusters
		res.SmallClusters += o.smallClusters
		for c := 0; c < numClasses; c++ {
			for ri := range o.runs[c] {
				counts[c] += len(o.runs[c][ri].sel)
			}
			total[c] += o.total[c]
			fixed[c] += o.fixed[c]
		}
	}
	res.setTimes(&total, &fixed)

	if met != nil {
		met.Spans.RecordNS(StageMerge, since(tMerge))
		tMap = time.Now()
	}

	// Each class's stream is merged from its elements' runs — in
	// element order (edges then vertices, both key-sorted), which is
	// sampleLess's own tie order, so the merge decides almost every
	// comparison on Start. The classes are independent: merge them
	// concurrently.
	var streams [numClasses][]Sample
	forEach(numClasses, opt.Parallelism, func(c int) {
		if counts[c] == 0 {
			return
		}
		mg := &a.merge[c]
		for i := range outs {
			for ri := range outs[i].runs[c] {
				mg.runs = append(mg.runs, &outs[i].runs[c][ri])
			}
		}
		if a.permuteRuns != nil {
			mg.runs = a.permuteRuns(mg.runs)
		}
		samples := make([]Sample, 0, counts[c])
		if opt.DisableIncremental {
			samples = mg.concat(samples)
			sortSamples(samples)
			if met != nil {
				met.SortFallbacks.Inc()
			}
		} else {
			samples = mg.merge(samples)
		}
		streams[c] = samples
	})
	for c := 0; c < numClasses; c++ {
		if streams[c] != nil {
			res.Samples[Class(c)] = streams[c]
		}
	}
	return res, t0, tMap
}

// sortRegionsByLoss puts the most impactful regions first (§3.5:
// reported by performance impact); equal losses keep class-then-
// discovery order.
func sortRegionsByLoss(regions []Region) {
	slices.SortStableFunc(regions, func(a, b Region) int { return cmp.Compare(b.LossNS, a.LossNS) })
}

// normalizeElement turns one element's clustering into normalized
// samples and coverage partials, keeping only fragments overlapping
// [start, end). Each fragment is classed by its own kind — a vertex
// carrying mixed fragment kinds contributes to several classes rather
// than being classed wholesale by its first fragment.
//
// The hot path no longer calls this per window — prepElem.window slices
// the same outputs from a memoized full-population pass — but this
// direct form remains the semantic reference: the equivalence tests pin
// the sliced path bit-identical to it.
func normalizeElement(frags trace.LogView, cl cluster.Result, ref ClusterRef, opt Options, start, end int64) (out elemDirect) {
	minFrag := opt.Cluster.MinFragments
	if minFrag <= 0 {
		minFrag = 5
	}
	groups := cl.Groups()
	for ci := range cl.Clusters {
		if cl.Clusters[ci].Fixed {
			out.fixedClusters++
		} else {
			out.smallClusters++
			continue
		}
		// Fastest member defines performance 1.0.
		best := int64(math.MaxInt64)
		perRank := make(map[int]int)
		for _, m := range groups[ci] {
			rank, _, e := frags.Span(int(m))
			perRank[rank]++
			if e > 0 && e < best {
				best = e
			}
		}
		if best == math.MaxInt64 {
			continue
		}
		for _, m := range groups[ci] {
			rank, fstart, elapsed := frags.Span(int(m))
			if fstart >= end || fstart+elapsed <= start {
				continue
			}
			class := ClassOf(frags.Kind(int(m)))
			// Detection pools fragments across processes (the
			// inter-process comparison needs that), but coverage
			// follows the paper's repetition notion: the snippet
			// must recur within a process to count as repeated
			// fixed workload there.
			covered := perRank[rank] >= minFrag
			if covered {
				out.fixed[class] += elapsed
			}
			perf := 1.0
			if elapsed > 0 {
				perf = float64(best) / float64(elapsed)
			}
			ref := ref
			ref.Cluster = ci
			out.samples[class] = append(out.samples[class], Sample{
				Rank:       rank,
				Start:      fstart,
				Elapsed:    elapsed,
				Perf:       perf,
				Covered:    covered,
				ClusterRef: ref,
				FragIndex:  int(m),
			})
		}
	}
	for i := 0; i < frags.Len(); i++ {
		_, fstart, elapsed := frags.Span(i)
		if fstart >= end || fstart+elapsed <= start {
			continue
		}
		out.total[ClassOf(frags.Kind(i))] += elapsed
	}
	return out
}

// forEach runs fn(0..n-1) across a bounded worker pool. parallelism 0
// means GOMAXPROCS; 1 (or n==1) degenerates to a plain sequential loop.
// Iterations are claimed from an atomic counter, so callers writing to
// disjoint slots see a deterministic overall result.
func forEach(n, parallelism int, fn func(int)) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// MapAndRegions builds a heat map from pre-normalized samples and runs
// region growing over it. It is the shared back half of detection, also
// used by the vSensor baseline (which produces its samples differently).
func MapAndRegions(class Class, samples []Sample, ranks int, opt Options) (*HeatMap, []Region) {
	if opt.Window <= 0 {
		opt.Window = 500 * sim.Millisecond
	}
	if opt.Threshold <= 0 {
		opt.Threshold = 0.85
	}
	h := buildHeatMap(class, samples, ranks, opt.Window, 0)
	if h == nil {
		return nil, nil
	}
	h.markStale(opt.Outages, nil)
	return h, growRegions(h, samples, opt)
}

// buildHeatMap bins the samples into the rank × window grid using
// elapsed-time-weighted averaging ("weighted equalization" in Fig. 2).
// origin is the virtual time of the first cell column (0 for whole-run
// maps; the window start for the monitor's per-window maps, so the grid
// covers only the window instead of growing with absolute time).
func buildHeatMap(class Class, samples []Sample, ranks int, window sim.Duration, origin int64) *HeatMap {
	if len(samples) == 0 || ranks <= 0 {
		return nil
	}
	return binHeatMap(class, samples, ranks, window, origin, mapWidth(samples, window, origin))
}

// mapWidth is the column count a heat map over samples needs to reach
// their latest end from origin: at least 1, and 0 for no samples.
func mapWidth(samples []Sample, window sim.Duration, origin int64) int {
	if len(samples) == 0 {
		return 0
	}
	maxEnd := origin
	for i := range samples {
		if e := samples[i].Start + samples[i].Elapsed; e > maxEnd {
			maxEnd = e
		}
	}
	return max(int((maxEnd-origin)/int64(window))+1, 1)
}

// binHeatMap is buildHeatMap over a grid wins columns wide. A sample
// never reaches past its own stream's mapWidth, so a wider grid leaves
// every cell it shares with the narrower one bit-identical.
func binHeatMap(class Class, samples []Sample, ranks int, window sim.Duration, origin int64, wins int) *HeatMap {
	h := &HeatMap{Class: class, Ranks: ranks, Windows: wins, Window: window, Origin: sim.Time(origin)}
	h.Cells = make([]float64, ranks*wins)
	weight := make([]float64, ranks*wins)
	for i := range h.Cells {
		h.Cells[i] = math.NaN()
	}
	for i := range samples {
		s := &samples[i]
		if s.Rank < 0 || s.Rank >= ranks {
			continue
		}
		// Spread the sample over every window it overlaps, weighting
		// by the overlap length. Samples may start before origin (a
		// fragment straddling the window boundary); only the part from
		// origin on is binned.
		start, end := s.Start, s.Start+s.Elapsed
		if end <= start {
			end = start + 1
		}
		w0 := int((start - origin) / int64(window))
		if w0 < 0 {
			w0 = 0
		}
		w1 := int((end - 1 - origin) / int64(window))
		if w1 < 0 {
			continue
		}
		if w1 >= wins {
			w1 = wins - 1
		}
		for w := w0; w <= w1; w++ {
			bs := origin + int64(w)*int64(window)
			be := bs + int64(window)
			ov := min64(end, be) - max64(start, bs)
			if ov <= 0 {
				continue
			}
			idx := s.Rank*wins + w
			wt := float64(ov)
			if math.IsNaN(h.Cells[idx]) {
				h.Cells[idx] = 0
			}
			h.Cells[idx] += s.Perf * wt
			weight[idx] += wt
		}
	}
	for i := range h.Cells {
		if weight[i] > 0 {
			h.Cells[i] /= weight[i]
		}
	}
	return h
}

// GrowRegions is the exported batch region grower: 4-connected
// components of sub-threshold cells over an arbitrary heat map, with
// samples re-attached and loss quantified. The spatial merger's
// equivalence tests pin the stitched cross-shard regions bit-identical
// to this reference run over the merged grid.
func GrowRegions(h *HeatMap, samples []Sample, opt Options) []Region {
	if opt.Threshold <= 0 {
		opt.Threshold = 0.85
	}
	return growRegions(h, samples, opt)
}

// growRegions finds 4-connected components of sub-threshold cells and
// aggregates their bounding boxes and losses.
func growRegions(h *HeatMap, samples []Sample, opt Options) []Region {
	low := func(r, w int) bool {
		if h.StaleAt(r, w) {
			return false // lost data is neither fast nor slow
		}
		v := h.At(r, w)
		return !math.IsNaN(v) && v < opt.Threshold
	}
	seen := make([]bool, len(h.Cells))
	var regions []Region
	for r := 0; r < h.Ranks; r++ {
		for w := 0; w < h.Windows; w++ {
			idx := r*h.Windows + w
			if seen[idx] || !low(r, w) {
				continue
			}
			// BFS flood fill.
			reg := Region{Class: h.Class, RankMin: r, RankMax: r, WinMin: w, WinMax: w}
			queue := []int{idx}
			seen[idx] = true
			var perfSum float64
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				cr, cw := cur/h.Windows, cur%h.Windows
				reg.Cells++
				perfSum += h.At(cr, cw)
				if cr < reg.RankMin {
					reg.RankMin = cr
				}
				if cr > reg.RankMax {
					reg.RankMax = cr
				}
				if cw < reg.WinMin {
					reg.WinMin = cw
				}
				if cw > reg.WinMax {
					reg.WinMax = cw
				}
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nr, nw := cr+d[0], cw+d[1]
					if nr < 0 || nr >= h.Ranks || nw < 0 || nw >= h.Windows {
						continue
					}
					ni := nr*h.Windows + nw
					if !seen[ni] && low(nr, nw) {
						seen[ni] = true
						queue = append(queue, ni)
					}
				}
			}
			if reg.Cells < opt.MinRegionCells {
				continue
			}
			reg.MeanPerf = perfSum / float64(reg.Cells)
			regions = append(regions, reg)
		}
	}
	// Attach member samples and quantify loss.
	attachSamples(regions, h, samples)
	return regions
}

// attachSamples appends each region's member samples (rank within the
// region's span, time overlapping its window range) and accumulates the
// quantified loss. It produces exactly what a full scan of the sample
// slice per region would — same members, same ascending-index order —
// but via a per-rank bucket index, so the cost is O(samples) plus the
// regions' actual membership instead of O(regions × samples). The
// distinction is what keeps a spatially merged grid (thousands of
// ranks, one region per slow rank) on the linear cost curve.
func attachSamples(regions []Region, h *HeatMap, samples []Sample) {
	if len(regions) == 0 || len(samples) == 0 {
		return
	}
	byRank := make([][]int32, h.Ranks)
	for i := range samples {
		if r := samples[i].Rank; r >= 0 && r < h.Ranks {
			byRank[r] = append(byRank[r], int32(i))
		}
	}
	var idxs []int32
	for ri := range regions {
		reg := &regions[ri]
		t0 := int64(h.Origin) + int64(reg.WinMin)*int64(h.Window)
		t1 := int64(h.Origin) + int64(reg.WinMax+1)*int64(h.Window)
		idxs = idxs[:0]
		for r := reg.RankMin; r <= reg.RankMax && r < h.Ranks; r++ {
			if r < 0 {
				continue
			}
			for _, i := range byRank[r] {
				s := &samples[i]
				if s.Start+s.Elapsed <= t0 || s.Start >= t1 {
					continue
				}
				idxs = append(idxs, i)
			}
		}
		// Multi-rank spans interleave buckets; restore the global scan
		// order (ascending sample index) before appending.
		if reg.RankMax > reg.RankMin {
			slices.Sort(idxs)
		}
		for _, i := range idxs {
			s := &samples[i]
			reg.Samples = append(reg.Samples, *s)
			reg.LossNS += int64((1 - s.Perf) * float64(s.Elapsed))
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
