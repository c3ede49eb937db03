package detect_test

import (
	"math"
	"reflect"
	"testing"

	"vapro/internal/apps"
	"vapro/internal/core"
	"vapro/internal/detect"
	"vapro/internal/noise"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// tracedGraph records one noisy CG run and returns its STG — a
// realistic fragment population (multiple edges, vertices, workload
// classes, injected variance) for the parallel/sequential comparison.
func tracedGraph(t *testing.T) (*stg.Graph, int) {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Ranks = 8
	sch := noise.NewSchedule()
	sch.Add(noise.NodeCPUContention(0, sim.Time(20*sim.Millisecond), sim.Time(60*sim.Millisecond), 0.5))
	opt.Noise = sch
	res := core.RunTraced(apps.NewCG(10), opt)
	return res.Graph, res.Ranks
}

func sameHeatMap(t *testing.T, class detect.Class, a, b *detect.HeatMap) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("class %v: one map nil", class)
	}
	if a == nil {
		return
	}
	if a.Ranks != b.Ranks || a.Windows != b.Windows || a.Window != b.Window || a.Origin != b.Origin {
		t.Fatalf("class %v: map shapes differ: %+v vs %+v", class, a, b)
	}
	for i := range a.Cells {
		// Bitwise comparison: NaN (empty cell) must match NaN.
		if math.Float64bits(a.Cells[i]) != math.Float64bits(b.Cells[i]) {
			t.Fatalf("class %v cell %d: %v vs %v", class, i, a.Cells[i], b.Cells[i])
		}
	}
}

// sameResult asserts two detection results are identical in every
// observable: samples (values and order), coverage, cluster counts,
// heat maps (bitwise), and regions (bounds, loss, member samples,
// order).
func sameResult(t *testing.T, a, b *detect.Result) {
	t.Helper()
	for _, class := range []detect.Class{detect.Computation, detect.Communication, detect.IOClass} {
		if len(a.Samples[class]) != len(b.Samples[class]) {
			t.Fatalf("class %v: %d vs %d samples", class, len(a.Samples[class]), len(b.Samples[class]))
		}
		if !reflect.DeepEqual(a.Samples[class], b.Samples[class]) {
			t.Fatalf("class %v: samples differ", class)
		}
		sameHeatMap(t, class, a.Maps[class], b.Maps[class])
	}
	if !reflect.DeepEqual(a.Coverage, b.Coverage) {
		t.Fatalf("coverage differs: %v vs %v", a.Coverage, b.Coverage)
	}
	if a.OverallCoverage != b.OverallCoverage {
		t.Fatalf("overall coverage %v vs %v", a.OverallCoverage, b.OverallCoverage)
	}
	if a.FixedClusters != b.FixedClusters || a.SmallClusters != b.SmallClusters {
		t.Fatalf("cluster counts differ: %d/%d vs %d/%d",
			a.FixedClusters, a.SmallClusters, b.FixedClusters, b.SmallClusters)
	}
	if !reflect.DeepEqual(a.Regions, b.Regions) {
		t.Fatalf("regions differ: %d vs %d", len(a.Regions), len(b.Regions))
	}
}

// The parallel pipeline must be indistinguishable from the sequential
// reference: same samples in the same order, same coverage, bitwise-
// identical heat maps, same regions.
func TestParallelRunMatchesSequential(t *testing.T) {
	g, ranks := tracedGraph(t)
	seqOpt := detect.DefaultOptions()
	seqOpt.Parallelism = 1
	seq := detect.Run(g, ranks, seqOpt)
	if len(seq.Samples[detect.Computation]) == 0 {
		t.Fatal("reference run produced no samples")
	}
	for _, workers := range []int{2, 4, 8} {
		parOpt := detect.DefaultOptions()
		parOpt.Parallelism = workers
		sameResult(t, seq, detect.Run(g, ranks, parOpt))
	}
}

func TestParallelRunWindowMatchesSequential(t *testing.T) {
	g, ranks := tracedGraph(t)
	start, end := int64(20*sim.Millisecond), int64(60*sim.Millisecond)
	seqOpt := detect.DefaultOptions()
	seqOpt.Parallelism = 1
	parOpt := detect.DefaultOptions()
	parOpt.Parallelism = 8
	seq := detect.NewAnalyzer().RunWindow(g, ranks, seqOpt, start, end)
	par := detect.NewAnalyzer().RunWindow(g, ranks, parOpt, start, end)
	sameResult(t, seq, par)
	// The window view must carry fewer samples than the whole run and
	// only samples overlapping the window.
	full := detect.Run(g, ranks, seqOpt)
	if len(seq.Samples[detect.Computation]) >= len(full.Samples[detect.Computation]) {
		t.Fatal("window did not filter samples")
	}
	for _, s := range seq.Samples[detect.Computation] {
		if s.Start >= end || s.Start+s.Elapsed <= start {
			t.Fatalf("sample [%d, %d) outside window [%d, %d)", s.Start, s.Start+s.Elapsed, start, end)
		}
	}
}

// Repeated analyses through one Analyzer must cluster each element
// once; appending fragments re-clusters only the grown element.
func TestAnalyzerMemoizesAcrossRuns(t *testing.T) {
	g, ranks := tracedGraph(t)
	elements := uint64(g.NumEdges() + g.NumVertices())
	a := detect.NewAnalyzer()
	opt := detect.DefaultOptions()

	first := a.Run(g, ranks, opt)
	if hits, misses := a.Cache().Stats(); hits != 0 || misses != elements {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/%d", hits, misses, elements)
	}
	second := a.Run(g, ranks, opt)
	if hits, misses := a.Cache().Stats(); hits != elements || misses != elements {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/%d", hits, misses, elements, elements)
	}
	sameResult(t, first, second)

	// Grow one edge: exactly one element re-clusters on the next run.
	e := g.Edges()[0]
	f := e.Log().Slice()[0]
	f.Start = f.Start + 1
	g.AddBatch([]trace.Fragment{f})
	a.Run(g, ranks, opt)
	hits, misses := a.Cache().Stats()
	incHits, incFallbacks, _ := a.Cache().IncStats()
	if hits != 2*elements-1 || misses != elements || incHits+incFallbacks != 1 {
		t.Fatalf("after growth: hits=%d misses=%d inc=%d/%d, want %d/%d and exactly one incremental advance",
			hits, misses, incHits, incFallbacks, 2*elements-1, elements)
	}
}

// A vertex carrying mixed fragment kinds must contribute each fragment
// to its own class, not class the whole vertex by Fragments[0].Kind.
func TestMixedKindVertexClassedPerFragment(t *testing.T) {
	g := stg.New()
	for i := 0; i < 10; i++ {
		// Comm first: the old wholesale rule would have classed the IO
		// fragments as Communication too.
		g.AddBatch([]trace.Fragment{{Rank: 0, Kind: trace.Comm, State: 9,
			Start: int64(i) * 2_000_000, Elapsed: 500_000,
			Args: trace.Args{Op: trace.Op("Send"), Bytes: 1024}}})
		g.AddBatch([]trace.Fragment{{Rank: 0, Kind: trace.IO, State: 9,
			Start: int64(i)*2_000_000 + 1_000_000, Elapsed: 250_000,
			Args: trace.Args{Op: trace.Op("read"), Bytes: 65536}}})
	}
	res := detect.Run(g, 1, detect.DefaultOptions())
	if n := len(res.Samples[detect.Communication]); n != 10 {
		t.Fatalf("communication samples: %d, want 10", n)
	}
	if n := len(res.Samples[detect.IOClass]); n != 10 {
		t.Fatalf("io samples: %d, want 10 (misclassified by first fragment kind?)", n)
	}
	// Coverage totals must split by fragment kind as well: comm carries
	// 2/3 of the vertex time, io 1/3, and both are fully repeated.
	if c := res.Coverage[detect.Communication]; c < 0.999 {
		t.Fatalf("comm coverage %v, want 1", c)
	}
	if c := res.Coverage[detect.IOClass]; c < 0.999 {
		t.Fatalf("io coverage %v, want 1", c)
	}
}
