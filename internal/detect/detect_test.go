package detect

import (
	"math"
	"testing"

	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// buildGraph makes an STG with one edge carrying `perRank` fragments of
// a fixed workload per rank, with rank `slowRank` running `slowFactor`
// slower during [slowStart, slowEnd).
func buildGraph(ranks, perRank int, slowRank int, slowFactor float64, slowStart, slowEnd int64) *stg.Graph {
	g := stg.New()
	const base = int64(1_000_000) // 1ms fragments
	for rank := 0; rank < ranks; rank++ {
		t := int64(0)
		for i := 0; i < perRank; i++ {
			el := base
			if rank == slowRank && t >= slowStart && t < slowEnd {
				el = int64(float64(base) * slowFactor)
			}
			g.AddBatch([]trace.Fragment{{
				Rank: rank, Kind: trace.Comp, From: 1, State: 2,
				Start: t, Elapsed: el,
				Counters: trace.CountersView{TotIns: 500000, Cycles: 250000},
			}})
			t += el
		}
	}
	return g
}

func opts() Options {
	o := DefaultOptions()
	o.Window = 5 * sim.Millisecond
	return o
}

func TestNormalizationFastestIsOne(t *testing.T) {
	g := buildGraph(4, 50, 2, 2.0, 0, 1e9)
	res := Run(g, 4, opts())
	samples := res.Samples[Computation]
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	var best float64
	for _, s := range samples {
		if s.Perf > best {
			best = s.Perf
		}
		if s.Perf <= 0 || s.Perf > 1 {
			t.Fatalf("perf out of (0,1]: %v", s.Perf)
		}
	}
	if best < 0.999 {
		t.Fatalf("fastest fragment perf %v, want ~1", best)
	}
}

func TestSlowRankDetected(t *testing.T) {
	g := buildGraph(8, 60, 3, 2.0, 0, 1e9)
	res := Run(g, 8, opts())
	if len(res.Regions) == 0 {
		t.Fatal("2x-slow rank not detected")
	}
	reg := res.Regions[0]
	if reg.RankMin > 3 || reg.RankMax < 3 {
		t.Fatalf("region misses the slow rank: %+v", reg)
	}
	if reg.MeanPerf > 0.65 {
		t.Fatalf("region perf %v, want ~0.5", reg.MeanPerf)
	}
	if reg.LossNS <= 0 {
		t.Fatal("region has no quantified loss")
	}
}

func TestQuietRunNoRegions(t *testing.T) {
	g := buildGraph(8, 60, -1, 1, 0, 0)
	res := Run(g, 8, opts())
	if len(res.Regions) != 0 {
		t.Fatalf("quiet run produced %d regions", len(res.Regions))
	}
}

func TestTemporalLocalization(t *testing.T) {
	// Slow window in the middle third only.
	g := buildGraph(4, 90, 1, 2.0, 30_000_000, 60_000_000)
	res := Run(g, 4, opts())
	if len(res.Regions) == 0 {
		t.Fatal("temporal variance not detected")
	}
	h := res.Maps[Computation]
	reg := res.Regions[0]
	if reg.StartTime(h).Seconds() > 0.035 || reg.EndTime(h).Seconds() < 0.05 {
		t.Fatalf("region window wrong: %v-%v", reg.StartTime(h), reg.EndTime(h))
	}
	if reg.RankMin != 1 || reg.RankMax != 1 {
		t.Fatalf("region ranks wrong: %d-%d", reg.RankMin, reg.RankMax)
	}
}

func TestCoveragePerProcessRule(t *testing.T) {
	// Each rank executes the workload once: pooled cluster is big, but
	// per-rank repetition is 1 < 5, so coverage must be 0 while samples
	// still exist (inter-process detection keeps working).
	g := stg.New()
	for rank := 0; rank < 16; rank++ {
		g.AddBatch([]trace.Fragment{{
			Rank: rank, Kind: trace.Comp, From: 1, State: 2,
			Start: 0, Elapsed: 1_000_000,
			Counters: trace.CountersView{TotIns: 500000, Cycles: 250000},
		}})
	}
	res := Run(g, 16, opts())
	if res.Coverage[Computation] != 0 {
		t.Fatalf("coverage %v, want 0 under per-process rule", res.Coverage[Computation])
	}
	if len(res.Samples[Computation]) != 16 {
		t.Fatalf("pooled samples missing: %d", len(res.Samples[Computation]))
	}
}

func TestCoverageFullWhenRepeated(t *testing.T) {
	g := buildGraph(4, 50, -1, 1, 0, 0)
	res := Run(g, 4, opts())
	if res.Coverage[Computation] < 0.999 {
		t.Fatalf("repeated fixed workload coverage %v", res.Coverage[Computation])
	}
	if res.OverallCoverage < 0.999 {
		t.Fatalf("overall coverage %v", res.OverallCoverage)
	}
}

func TestClassSeparation(t *testing.T) {
	g := stg.New()
	for rank := 0; rank < 2; rank++ {
		for i := 0; i < 10; i++ {
			g.AddBatch([]trace.Fragment{{Rank: rank, Kind: trace.Comp, From: 1, State: 2,
				Start: int64(i) * 2_000_000, Elapsed: 1_000_000,
				Counters: trace.CountersView{TotIns: 1000, Cycles: 500}}})
			g.AddBatch([]trace.Fragment{{Rank: rank, Kind: trace.Comm, State: 2,
				Start: int64(i)*2_000_000 + 1_000_000, Elapsed: 500_000,
				Args: trace.Args{Op: trace.Op("Send"), Bytes: 1024}}})
			g.AddBatch([]trace.Fragment{{Rank: rank, Kind: trace.IO, State: 3,
				Start: int64(i)*2_000_000 + 1_500_000, Elapsed: 250_000,
				Args: trace.Args{Op: trace.Op("read"), Bytes: 4096}}})
		}
	}
	res := Run(g, 2, opts())
	for _, class := range []Class{Computation, Communication, IOClass} {
		if len(res.Samples[class]) == 0 {
			t.Fatalf("class %v has no samples", class)
		}
		if res.Maps[class] == nil {
			t.Fatalf("class %v has no heat map", class)
		}
	}
}

func TestHeatMapWeighting(t *testing.T) {
	// One long slow fragment and many short fast ones in one window:
	// the weighted cell must be dominated by the long fragment.
	g := stg.New()
	for i := 0; i < 10; i++ {
		g.AddBatch([]trace.Fragment{{Rank: 0, Kind: trace.Comp, From: 1, State: 2,
			Start: int64(i) * 10_000, Elapsed: 10_000,
			Counters: trace.CountersView{TotIns: 1000, Cycles: 100}}})
	}
	// Slow duplicates of a much bigger workload class.
	for i := 0; i < 10; i++ {
		el := int64(400_000)
		if i > 0 {
			el = 800_000 // half performance
		}
		g.AddBatch([]trace.Fragment{{Rank: 0, Kind: trace.Comp, From: 2, State: 3,
			Start: 100_000 + int64(i)*800_000, Elapsed: el,
			Counters: trace.CountersView{TotIns: 100000, Cycles: 10000}}})
	}
	o := opts()
	o.Window = 10 * sim.Millisecond
	res := Run(g, 1, o)
	h := res.Maps[Computation]
	if h == nil {
		t.Fatal("no map")
	}
	cell := h.At(0, 0)
	if math.IsNaN(cell) || cell > 0.7 {
		t.Fatalf("weighted cell %v should be pulled down by the slow long fragments", cell)
	}
}

func TestRegionGrowingMergesNeighbors(t *testing.T) {
	// Two adjacent slow ranks must form one region.
	g := stg.New()
	for rank := 0; rank < 6; rank++ {
		for i := 0; i < 30; i++ {
			el := int64(1_000_000)
			if rank == 2 || rank == 3 {
				el = 2_000_000
			}
			g.AddBatch([]trace.Fragment{{Rank: rank, Kind: trace.Comp, From: 1, State: 2,
				Start: int64(i) * 2_000_000, Elapsed: el,
				Counters: trace.CountersView{TotIns: 500000, Cycles: 250000}}})
		}
	}
	res := Run(g, 6, opts())
	if len(res.Regions) != 1 {
		t.Fatalf("adjacent slow ranks formed %d regions, want 1", len(res.Regions))
	}
	if res.Regions[0].RankMin != 2 || res.Regions[0].RankMax != 3 {
		t.Fatalf("region bounds: %+v", res.Regions[0])
	}
}

func TestMapAndRegions(t *testing.T) {
	samples := []Sample{
		{Rank: 0, Start: 0, Elapsed: 1_000_000, Perf: 1},
		{Rank: 0, Start: 1_000_000, Elapsed: 2_000_000, Perf: 0.5},
		{Rank: 1, Start: 0, Elapsed: 1_000_000, Perf: 1},
	}
	h, regions := MapAndRegions(Computation, samples, 2, Options{Window: sim.Millisecond, Threshold: 0.85})
	if h == nil {
		t.Fatal("no map")
	}
	if len(regions) == 0 {
		t.Fatal("slow sample not flagged")
	}
}

func TestClassOfAndStrings(t *testing.T) {
	if ClassOf(trace.Comp) != Computation || ClassOf(trace.Probe) != Computation {
		t.Fatal("comp class")
	}
	if ClassOf(trace.IO) != IOClass || ClassOf(trace.Comm) != Communication || ClassOf(trace.Sync) != Communication {
		t.Fatal("vertex classes")
	}
	if Computation.String() != "computation" || IOClass.String() != "io" {
		t.Fatal("strings")
	}
}
