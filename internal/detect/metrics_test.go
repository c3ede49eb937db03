package detect

import (
	"testing"

	"vapro/internal/obs"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

func metricsFrag(rank int, start, elapsed int64) trace.Fragment {
	return trace.Fragment{
		Rank: rank, Kind: trace.Comp, From: 1, State: 2,
		Start: start, Elapsed: elapsed,
		Counters: trace.CountersView{TotIns: 1000, Cycles: 500},
	}
}

// An instrumented analyzer records one pass per Run/RunWindow and times
// every stage; an uninstrumented one produces the identical result.
func TestAnalyzerMetrics(t *testing.T) {
	g := stg.New()
	for rank := 0; rank < 2; rank++ {
		for i := 0; i < 10; i++ {
			g.AddBatch([]trace.Fragment{metricsFrag(rank, int64(i)*1000, 500)})
		}
	}
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	a := NewAnalyzer()
	a.SetMetrics(met)

	res := a.Run(g, 2, DefaultOptions())
	if met.Windows.Load() != 1 {
		t.Fatalf("windows: %d, want 1", met.Windows.Load())
	}
	a.RunWindow(g, 2, DefaultOptions(), 0, 5000)
	if met.Windows.Load() != 2 {
		t.Fatalf("windows: %d, want 2", met.Windows.Load())
	}
	if n := met.WindowNS.Snapshot().Total; n != 2 {
		t.Fatalf("window latency observations: %d, want 2", n)
	}
	snap := reg.Snapshot()
	for _, st := range []string{"prep", "cluster", "normalize", "merge", "map"} {
		if got := snap.Get("vapro_detect_stage_" + st + "_ns").Hist.Total; got != 2 {
			t.Fatalf("stage %s recorded %d spans, want 2", st, got)
		}
	}

	// Instrumentation is observational: the plain analyzer computes the
	// same detection bit for bit.
	plain := NewAnalyzer().Run(g, 2, DefaultOptions())
	if len(plain.Regions) != len(res.Regions) || plain.OverallCoverage != res.OverallCoverage {
		t.Fatal("metrics changed the analysis result")
	}
	if plain.FixedClusters != res.FixedClusters {
		t.Fatal("metrics changed cluster accounting")
	}
}
