package vsensor

import (
	"testing"

	"vapro/internal/detect"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

func TestCapabilityGates(t *testing.T) {
	cases := []struct {
		cap  Capability
		want bool
	}{
		{Capability{SourceAvailable: true}, true},
		{Capability{SourceAvailable: false}, false},                    // HPL
		{Capability{SourceAvailable: true, Threaded: true}, false},     // PageRank
		{Capability{SourceAvailable: true, HugeCodebase: true}, false}, // CESM
	}
	for _, c := range cases {
		if c.cap.Supported() != c.want {
			t.Fatalf("%+v supported=%v", c.cap, c.cap.Supported())
		}
	}
	res := Analyze(stg.New(), 4, Capability{}, detect.Options{})
	if res.Supported || res.Coverage != 0 {
		t.Fatal("unsupported analysis must be empty")
	}
}

func buildGraph(static bool) *stg.Graph {
	g := stg.New()
	for rank := 0; rank < 4; rank++ {
		for i := 0; i < 10; i++ {
			g.AddBatch([]trace.Fragment{{
				Rank: rank, Kind: trace.Comp, From: 1, State: 2,
				Start: int64(i) * 1000, Elapsed: 800,
				Counters: trace.CountersView{TotIns: 1000, Cycles: 500},
				Static:   static, Truth: 42,
			}})
		}
	}
	return g
}

func TestCoverageStaticOnly(t *testing.T) {
	opt := detect.Options{Window: sim.Millisecond, Threshold: 0.85}
	res := Analyze(buildGraph(true), 4, Capability{SourceAvailable: true}, opt)
	if res.Coverage < 0.999 {
		t.Fatalf("all-static coverage %v", res.Coverage)
	}
	res = Analyze(buildGraph(false), 4, Capability{SourceAvailable: true}, opt)
	if res.Coverage != 0 {
		t.Fatalf("dynamic fragments covered by static analysis: %v", res.Coverage)
	}
	if len(res.Samples) != 0 {
		t.Fatal("samples from dynamic fragments")
	}
}

func TestSingleExecutionStillVerified(t *testing.T) {
	// A statically-verified snippet executed once counts for vSensor —
	// that is the FT-setup distinction against clustering.
	g := stg.New()
	g.AddBatch([]trace.Fragment{{
		Rank: 0, Kind: trace.Comp, From: 1, State: 2, Elapsed: 500,
		Counters: trace.CountersView{TotIns: 1000, Cycles: 500},
		Static:   true, Truth: 7,
	}})
	res := Analyze(g, 1, Capability{SourceAvailable: true}, detect.Options{Window: sim.Millisecond})
	if res.Coverage < 0.999 {
		t.Fatalf("single static execution coverage %v", res.Coverage)
	}
}

func TestTruthSeparatesWorkloads(t *testing.T) {
	// Two static workloads on one edge: each normalizes against its
	// own fastest.
	g := stg.New()
	for i := 0; i < 6; i++ {
		g.AddBatch([]trace.Fragment{{
			Rank: 0, Kind: trace.Comp, From: 1, State: 2,
			Start: int64(i) * 10_000, Elapsed: 1000,
			Counters: trace.CountersView{TotIns: 1000, Cycles: 500},
			Static:   true, Truth: 1,
		}})
		g.AddBatch([]trace.Fragment{{
			Rank: 0, Kind: trace.Comp, From: 1, State: 2,
			Start: int64(i)*10_000 + 5000, Elapsed: 4000,
			Counters: trace.CountersView{TotIns: 4000, Cycles: 2000},
			Static:   true, Truth: 2,
		}})
	}
	res := Analyze(g, 1, Capability{SourceAvailable: true}, detect.Options{Window: sim.Millisecond})
	for _, s := range res.Samples {
		if s.Perf < 0.99 {
			t.Fatalf("uniform per-truth groups must all normalize to ~1, got %v", s.Perf)
		}
	}
}

func TestOverheadModel(t *testing.T) {
	if Overhead(0, sim.Second) != 0 {
		t.Fatal("zero events")
	}
	if Overhead(1000, 0) != 0 {
		t.Fatal("zero makespan")
	}
	// 5000 interceptions over one second at ~2µs each ≈ 1%.
	ov := Overhead(5000, sim.Second)
	if ov <= 0 || ov > 0.05 {
		t.Fatalf("overhead %v", ov)
	}
}
