package detect

import (
	"math"
	"testing"
	"testing/quick"

	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// Robustness: detection must survive arbitrary fragment streams without
// panicking and with its invariants intact. This is the
// failure-injection net for the analysis plane: whatever a buggy or
// malicious client ships, the server must not fall over.
func TestDetectRobustAgainstRandomStreams(t *testing.T) {
	f := func(seed uint64, ranks8 uint8) bool {
		rng := sim.NewRNG(seed)
		ranks := int(ranks8%16) + 1
		g := stg.New()
		n := rng.Intn(400)
		for i := 0; i < n; i++ {
			fr := trace.Fragment{
				Rank:    rng.Intn(ranks*2) - ranks/2, // includes out-of-range ranks
				Kind:    trace.Kind(rng.Intn(6)),     // includes invalid kinds
				From:    rng.Uint64() % 5,
				State:   rng.Uint64() % 5,
				Start:   int64(rng.Intn(1_000_000_000)) - 1000, // includes negatives
				Elapsed: int64(rng.Intn(10_000_000)) - 100,     // includes negatives
				Counters: trace.CountersView{
					TotIns: rng.Uint64() % 1_000_000,
					Cycles: rng.Uint64() % 500_000,
				},
				Args: trace.Args{Bytes: rng.Intn(1 << 20), Peer: rng.Intn(8) - 2, Tag: rng.Intn(4)},
			}
			g.AddBatch([]trace.Fragment{fr})
		}
		res := Run(g, ranks, Options{Window: sim.Millisecond, Threshold: 0.85})
		// Invariants: perf in (0,1] or exactly 1 for degenerate input;
		// coverage in [0,1]; regions within grid bounds.
		for _, samples := range res.Samples {
			for _, s := range samples {
				if s.Perf <= 0 || s.Perf > 1 || math.IsNaN(s.Perf) {
					return false
				}
			}
		}
		if res.OverallCoverage < 0 || res.OverallCoverage > 1 {
			return false
		}
		for _, reg := range res.Regions {
			if reg.RankMin < 0 || reg.RankMax >= ranks || reg.WinMin < 0 || reg.WinMax < reg.WinMin {
				return false
			}
			if reg.MeanPerf < 0 || reg.MeanPerf > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
