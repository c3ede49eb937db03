package detect

import (
	"sync/atomic"
	"time"

	"vapro/internal/obs"
)

// Pipeline stages traced per analysis window. StagePrep is the whole
// per-element fan-out wall time; StageCluster and StageNormalize are the
// CPU time summed across workers inside it (cache-miss clustering, and
// prep rebuilds and advances — the regression-moment fold included —
// both near zero on warm windows); StageMerge sums the per-element
// partials; StageMap is the per-class stream merge and heat-map binning
// plus, in a whole pass, the stale marks and region growing (a Partial
// stops at the binned grids).
const (
	StagePrep = iota
	StageCluster
	StageNormalize
	StageMerge
	StageMap
)

// Metrics is the detection layer's observability surface.
type Metrics struct {
	// Windows counts completed analysis passes (whole-run or windowed).
	Windows *obs.Counter
	// WindowNS is the end-to-end latency distribution of one pass.
	WindowNS *obs.Histogram
	// Spans traces the per-stage latencies (see the Stage constants).
	Spans *obs.Spans
	// PrepIncremental counts element preps advanced by the delta path
	// (append-only generation steps patched in place).
	PrepIncremental *obs.Counter
	// PrepRebuilds counts element preps rebuilt from scratch (cold
	// elements, epoch bumps, option changes, fallback re-clusters).
	PrepRebuilds *obs.Counter
	// DirtySpanPct is the distribution of the dirty-span ratio (percent
	// of an element's population each incremental advance examined:
	// its appended fragments and the residents it re-read).
	DirtySpanPct *obs.Histogram
	// StoreAppends counts fragments appended to store-backed elements
	// (both initial builds and incremental advances).
	StoreAppends *obs.Counter
	// SortFallbacks counts per-class sample streams ordered by a
	// comparison sort instead of the run merge: the DisableIncremental
	// oracle's streams, and nothing else.
	SortFallbacks *obs.Counter
	// OLSRank1Updates counts fragments folded into a cluster's warm
	// regression moments by one rank-1 Add; OLSRefactors counts moment
	// sets built from a cluster's whole membership (a cold or rebuilt
	// prep, a re-formed cluster, one that grew into Fixed). Both stay 0
	// on an analyzer given no factor set (SetOLSFactors).
	OLSRank1Updates *obs.Counter
	OLSRefactors    *obs.Counter
}

// NewMetrics registers the detection metrics into reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Windows: reg.Counter("vapro_detect_windows_total", "detect",
			"completed detection passes (whole-run and per-window)"),
		WindowNS: reg.Histogram("vapro_detect_window_ns", "detect",
			"end-to-end latency of one detection pass (ns)", obs.LatencyBounds()),
		Spans: obs.NewSpans(reg, "vapro_detect_stage", "detect",
			"prep", "cluster", "normalize", "merge", "map"),
		PrepIncremental: reg.Counter("vapro_detect_prep_incremental_total", "detect",
			"element preps advanced incrementally (append-only delta applied in place)"),
		PrepRebuilds: reg.Counter("vapro_detect_prep_rebuilds_total", "detect",
			"element preps rebuilt from scratch"),
		DirtySpanPct: reg.Histogram("vapro_detect_dirty_span_pct", "detect",
			"dirty-span ratio of incremental advances (percent of the population examined)",
			[]int64{1, 2, 5, 10, 25, 50, 100}),
		StoreAppends: reg.Counter("vapro_detect_store_appends_total", "detect",
			"fragments appended to store-backed elements"),
		SortFallbacks: reg.Counter("vapro_detect_sample_sort_fallbacks_total", "detect",
			"per-class sample streams ordered by a comparison sort instead of the run merge"),
		OLSRank1Updates: reg.Counter("vapro_ols_rank1_updates_total", "ols",
			"fragments folded into warm regression moments by rank-1 updates"),
		OLSRefactors: reg.Counter("vapro_ols_refactors_total", "ols",
			"per-cluster regression moment sets built from the whole membership"),
	}
}

// SetMetrics attaches m to the analyzer; nil detaches. Instrumentation
// is observational only — results are bit-identical with or without it.
func (a *Analyzer) SetMetrics(m *Metrics) {
	a.met = m
}

// stageClock accumulates worker CPU time for the sub-stages that run
// inside the stage-1 fan-out. Workers add concurrently; partial() drains the
// totals into span records once per pass. Passes themselves are
// serialized by the callers (the pool's analysis mutex, the monitor's
// lock, the sequential core paths), so drain-and-reset is safe.
type stageClock struct {
	clusterNS atomic.Int64
	normNS    atomic.Int64
}

func (sc *stageClock) reset() {
	sc.clusterNS.Store(0)
	sc.normNS.Store(0)
}

// since is a tiny helper for the instrumentation sites.
func since(t0 time.Time) int64 { return time.Since(t0).Nanoseconds() }
