// Package vsensor is a faithful model of the state-of-the-art baseline
// the paper compares against: vSensor (PPoPP'18), which identifies
// fixed-workload snippets by *static source analysis* at compile time.
// Its limits, which Vapro's evaluation exercises, are:
//
//   - it only sees snippets whose workload is provably fixed at
//     compilation (constant loop bounds that survive alias analysis) —
//     modeled by the Static flag app skeletons set on such computes;
//   - a snippet with several runtime workload classes is invisible to
//     it, even if each class is perfectly repeatable (AMG, EP, CG);
//   - it needs source: closed-source programs (HPL) and very large
//     codebases (CESM) are out of reach;
//   - it does not support multi-threaded applications.
//
// Detection-wise it normalizes each verified snippet against its own
// fastest execution, like Vapro but without clustering.
package vsensor

import (
	"math"
	"sort"

	"vapro/internal/detect"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// Capability describes whether vSensor can process an application at
// all (source availability, threading model, codebase size).
type Capability struct {
	SourceAvailable bool
	Threaded        bool
	HugeCodebase    bool
}

// Supported reports whether vSensor can run on the application.
func (c Capability) Supported() bool {
	return c.SourceAvailable && !c.Threaded && !c.HugeCodebase
}

// Result is a vSensor analysis outcome.
type Result struct {
	// Supported is false when the tool cannot process the app; all
	// other fields are then zero.
	Supported bool
	// Coverage is time on statically verified fixed-workload snippets
	// over total time.
	Coverage float64
	// Samples are the normalized performance observations from the
	// verified snippets.
	Samples []detect.Sample
	// Map is the heat map over verified snippets only.
	Map *detect.HeatMap
	// Regions are the detected variance regions.
	Regions []detect.Region
}

// groupKey identifies one statically-verified snippet instance set: the
// STG edge plus the exact compile-time workload identity. vSensor
// instruments the snippet in source, so every execution with the same
// compile-time bounds is one comparable population — no minimum
// repetition is needed (one execution is still "verified"), which is
// exactly why FT's rarely-executed setup counts for vSensor but not for
// clustering-based Vapro.
type groupKey struct {
	edge  trace.EdgeKey
	truth uint64
}

// Analyze runs the vSensor model over an STG for ranks [0, ranks).
func Analyze(g *stg.Graph, ranks int, cap Capability, opt detect.Options) *Result {
	res := &Result{Supported: cap.Supported()}
	if !res.Supported {
		return res
	}
	if opt.Window <= 0 {
		opt.Window = 500 * sim.Millisecond
	}
	if opt.Threshold <= 0 {
		opt.Threshold = 0.85
	}

	var usableTime, totalTime int64
	groups := make(map[groupKey][]*trace.Fragment)
	for _, e := range g.Edges() {
		frags := e.Log().Slice()
		for i := range frags {
			f := &frags[i]
			totalTime += f.Elapsed
			if !f.Static {
				continue
			}
			k := groupKey{edge: e.Key, truth: f.Truth}
			groups[k] = append(groups[k], f)
		}
	}
	for _, frags := range groups {
		best := int64(math.MaxInt64)
		for _, f := range frags {
			if f.Elapsed > 0 && f.Elapsed < best {
				best = f.Elapsed
			}
		}
		if best == math.MaxInt64 {
			continue
		}
		for _, f := range frags {
			usableTime += f.Elapsed
			perf := 1.0
			if f.Elapsed > 0 {
				perf = float64(best) / float64(f.Elapsed)
			}
			res.Samples = append(res.Samples, detect.Sample{
				Rank:    f.Rank,
				Start:   f.Start,
				Elapsed: f.Elapsed,
				Perf:    perf,
			})
		}
	}
	// Vertices (communication) also count toward vSensor's denominator;
	// vSensor v2 tracks communication too but we compare computation
	// coverage as Table 1 does: total time includes everything.
	for _, v := range g.Vertices() {
		log := v.Log()
		for i := 0; i < log.Len(); i++ {
			_, _, elapsed := log.Span(i)
			totalTime += elapsed
		}
	}
	if totalTime > 0 {
		res.Coverage = float64(usableTime) / float64(totalTime)
	}
	sort.Slice(res.Samples, func(i, j int) bool { return res.Samples[i].Start < res.Samples[j].Start })
	res.Map, res.Regions = detect.MapAndRegions(detect.Computation, res.Samples, ranks, opt)
	return res
}

// Overhead returns vSensor's modeled runtime overhead fraction given
// one rank's interception count: a fixed per-snippet timer cost, lower
// than Vapro's per-event cost because no counters are read and no STG
// is maintained.
func Overhead(eventsPerRank int, makespan sim.Duration) float64 {
	if makespan <= 0 {
		return 0
	}
	const perEvent = 2 * sim.Microsecond
	return float64(sim.Duration(eventsPerRank)*perEvent) / float64(makespan)
}
