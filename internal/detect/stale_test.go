package detect

import (
	"math"
	"testing"

	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// staleFrag builds a computation fragment for the stale-map tests.
func staleFrag(rank int, start, elapsed int64) trace.Fragment {
	return trace.Fragment{
		Rank: rank, Kind: trace.Comp, From: 1, State: 2,
		Start: start, Elapsed: elapsed,
		Counters: trace.CountersView{TotIns: 1000, Cycles: 500},
	}
}

// TestStaleCellsExcludedFromRegions pins the gap-aware analysis: a rank
// whose data was lost over an interval is marked stale there, stale
// cells never join variance regions, and the marking is purely additive
// — the same input without outages reports the region as before.
func TestStaleCellsExcludedFromRegions(t *testing.T) {
	// Two ranks, ten repetitions each. Rank 1 runs 4x slower in the
	// second half — a clear variance region — but its data for that
	// span is also marked lost in transit.
	g := stg.New()
	var frags []trace.Fragment
	for i := 0; i < 10; i++ {
		frags = append(frags, staleFrag(0, int64(i)*1_000_000_000, 100_000_000))
		el := int64(100_000_000)
		if i >= 5 {
			el = 400_000_000
		}
		frags = append(frags, staleFrag(1, int64(i)*1_000_000_000, el))
	}
	g.AddBatch(frags)

	opt := DefaultOptions()
	opt.Window = 1000 * sim.Millisecond

	// Without outage knowledge the slowdown is a region on rank 1.
	base := Run(g, 2, opt)
	h := base.Maps[Computation]
	if h == nil {
		t.Fatal("no computation map")
	}
	if h.Stale != nil || h.StaleAt(1, 6) {
		t.Fatal("stale marks invented without outages")
	}
	foundRank1 := false
	for _, r := range base.Regions {
		if r.RankMin <= 1 && r.RankMax >= 1 {
			foundRank1 = true
		}
	}
	if !foundRank1 {
		t.Fatal("baseline run did not flag the rank-1 slowdown; test premise broken")
	}

	// With the interval declared lost, those cells go stale and stop
	// seeding regions.
	opt.Outages = []Outage{{Rank: 1, Start: 5_000_000_000, End: 10_000_000_000}}
	res := Run(g, 2, opt)
	h = res.Maps[Computation]
	for w := 5; w <= 9; w++ {
		if !h.StaleAt(1, w) {
			t.Fatalf("cell (1,%d) not stale", w)
		}
	}
	if h.StaleAt(0, 5) || h.StaleAt(1, 0) {
		t.Fatal("stale marks leaked outside the outage interval")
	}
	for _, r := range res.Regions {
		for w := r.WinMin; w <= r.WinMax; w++ {
			for rank := r.RankMin; rank <= r.RankMax; rank++ {
				if h.StaleAt(rank, w) && !math.IsNaN(h.At(rank, w)) {
					t.Fatalf("region %+v includes stale cell (%d,%d)", r, rank, w)
				}
			}
		}
	}
	// The region seeded by the stale cells must be gone entirely.
	for _, r := range res.Regions {
		if r.RankMin == 1 && r.WinMin >= 5 {
			t.Fatalf("stale-only region still reported: %+v", r)
		}
	}

	// An out-of-range rank and a zero-length outage must not panic and
	// the latter marks exactly its single containing cell.
	opt.Outages = []Outage{{Rank: 99, Start: 0, End: 1}, {Rank: 0, Start: 2_500_000_000, End: 2_500_000_000}}
	res = Run(g, 2, opt)
	h = res.Maps[Computation]
	if !h.StaleAt(0, 2) || h.StaleAt(0, 3) {
		t.Fatal("zero-length outage mis-marked")
	}
}

// TestStaleMapAndRegionsParity: the MapAndRegions entry point (vSensor
// baseline path) honors Outages identically.
func TestStaleMapAndRegionsParity(t *testing.T) {
	var samples []Sample
	for i := 0; i < 4; i++ {
		samples = append(samples, Sample{Rank: 0, Start: int64(i) * 1_000_000_000,
			Elapsed: 100_000_000, Perf: 0.2, Covered: true})
	}
	opt := DefaultOptions()
	opt.Window = 1000 * sim.Millisecond
	opt.Outages = []Outage{{Rank: 0, Start: 0, End: 4_000_000_000}}
	h, regions := MapAndRegions(Computation, samples, 1, opt)
	if h == nil {
		t.Fatal("no map")
	}
	for w := 0; w < 4; w++ {
		if !h.StaleAt(0, w) {
			t.Fatalf("cell (0,%d) not stale", w)
		}
	}
	if len(regions) != 0 {
		t.Fatalf("stale cells formed regions: %+v", regions)
	}
}

// TestMarkStaleBeforeOrigin: an outage that ends at or before a heat
// map's origin marks no cell. A negative offset divided by the cell
// width truncates toward zero, into column 0, and a stale cell never
// joins a region, so such a mark would hide variance at the start of
// every overlapped window.
func TestMarkStaleBeforeOrigin(t *testing.T) {
	const origin, window = int64(10_000_000_000), int64(50_000_000)
	for _, tc := range []struct {
		name  string
		o     Outage
		stale []int // columns that must be stale
	}{
		{"ends before origin", Outage{Start: origin - 100, End: origin - 50}, nil},
		{"zero-length before origin", Outage{Start: origin - 40_000_000, End: origin - 40_000_000}, nil},
		{"ends at origin", Outage{Start: origin - window, End: origin}, nil},
		{"straddles origin", Outage{Start: origin - 100, End: origin + 1}, []int{0}},
		{"zero-length at origin", Outage{Start: origin, End: origin}, []int{0}},
		{"second column", Outage{Start: origin + window, End: origin + window + 1}, []int{1}},
	} {
		h := &HeatMap{Ranks: 1, Windows: 3, Window: sim.Duration(window), Origin: sim.Time(origin), Cells: make([]float64, 3)}
		h.markStale([]Outage{tc.o}, nil)
		for w := 0; w < h.Windows; w++ {
			want := false
			for _, s := range tc.stale {
				want = want || s == w
			}
			if h.StaleAt(0, w) != want {
				t.Errorf("%s: column %d stale=%v, want %v", tc.name, w, h.StaleAt(0, w), want)
			}
		}
	}
}
