package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"vapro/internal/obs"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// TestRegionCarryEquivalenceFuzz pins incremental region growing
// bit-identical to the batch pass under its intended workload: windows
// sliding by whole bucket multiples over a growing graph, with outage
// sets that appear and disappear between windows (flipping `!`-stale
// bits under carried regions, which must force those cells to re-grow)
// and localized slow episodes that produce interior regions — the kind
// that survive the shift. The carried-cell tally asserts the carry
// actually engages — a fuzz that silently re-grows everything proves
// nothing.
func TestRegionCarryEquivalenceFuzz(t *testing.T) {
	schedules := 80
	if testing.Short() {
		schedules = 20
	}
	var carried atomic.Uint64
	t.Cleanup(func() {
		if carried.Load() == 0 {
			t.Errorf("no region cells carried across %d schedules: carry path never ran", schedules)
		}
	})
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("sched%03d", sched), func(t *testing.T) {
			t.Parallel()
			runRegionCarrySchedule(t, int64(11200+sched), &carried)
		})
	}
}

func runRegionCarrySchedule(t *testing.T, seed int64, carried *atomic.Uint64) {
	rng := rand.New(rand.NewSource(seed))
	ranks := 3 + rng.Intn(3)

	opt := DefaultOptions()
	winNS := int64(2+rng.Intn(4)) * 1_000_000
	opt.Window = sim.Duration(winNS)
	opt.Threshold = 0.85
	opt.MinRegionCells = 1 + rng.Intn(2)
	opt.Parallelism = rng.Intn(3)

	g := stg.New()
	inc := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	inc.SetMetrics(met)
	defer func() { carried.Add(met.RegionCellsCarried.Load()) }()

	// Tight baseline with the fastest member pinned up front (best never
	// improves later, so settled cells never renormalize), plus short
	// slow episodes per rank in early absolute time — interior islands
	// the sliding window can carry.
	clock := make([]int64, ranks)
	slowRank := rng.Intn(ranks)
	epStart := winNS * int64(2+rng.Intn(3))
	epEnd := epStart + winNS*int64(1+rng.Intn(3))

	span := winNS * int64(8+rng.Intn(8))
	var ws int64
	for b := 0; b < 8; b++ {
		var batch []trace.Fragment
		for i := 0; i < 40+rng.Intn(40); i++ {
			rank := rng.Intn(ranks)
			el := int64(1_000_000 + rng.Intn(40_000))
			if b == 0 && i == 0 {
				el = 1_000_000 // pin the cluster's fastest member
			}
			if rank == slowRank && clock[rank] >= epStart && clock[rank] < epEnd {
				el *= int64(2 + rng.Intn(2))
			}
			batch = append(batch, trace.Fragment{
				Rank: rank, Kind: trace.Comp, From: 1, State: 2,
				Start: clock[rank], Elapsed: el,
				Counters: trace.CountersView{TotIns: 800_000 + uint64(rng.Intn(3000))},
			})
			clock[rank] += el
		}
		g.AddBatch(batch)

		ropt := opt
		// Outages come and go across windows: a stale flip under a
		// previously carried region must be detected as a change.
		if rng.Intn(3) == 0 {
			ropt.Outages = []Outage{{
				Rank:  rng.Intn(ranks),
				Start: ws + int64(rng.Intn(6))*winNS,
				End:   ws + int64(2+rng.Intn(8))*winNS,
			}}
		}
		bopt := ropt
		bopt.DisableIncremental = true

		got := inc.RunWindow(g, ranks, ropt, ws, ws+span)
		want := NewAnalyzer().RunWindow(g, ranks, bopt, ws, ws+span)
		if !equalResults(got, want) {
			t.Fatalf("burst %d (ws=%d): carried result diverged from batch", b, ws)
		}
		ws += winNS * int64(rng.Intn(2)) // hold or advance one bucket
	}
}

// TestRegionCarryHatch pins the carried regions against the exported
// batch GrowRegions on the very heat map and stream each window
// produced — the carry has no switch of its own to be compared with —
// and the one switch that does bypass it: a persistent analyzer flipped
// onto the DisableIncremental oracle mid-run drops its carry state, so
// nothing stale is consulted when the carrying pass resumes.
func TestRegionCarryHatch(t *testing.T) {
	g := stg.New()
	a := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	a.SetMetrics(met)
	opt := DefaultOptions()
	winNS := int64(2_000_000)
	opt.Window = sim.Duration(winNS)
	bopt := opt
	bopt.DisableIncremental = true

	// All data lands up front; the windows then slide over a settled
	// graph (the monitor's steady state once ingest catches up). Rank 1
	// is slow only during buckets [5, 7) of absolute time, producing an
	// interior region that survives whole-bucket shifts.
	rng := rand.New(rand.NewSource(99))
	clock := make([]int64, 4)
	var batch []trace.Fragment
	for i := 0; i < 400; i++ {
		rank := rng.Intn(4)
		el := int64(1_000_000 + rng.Intn(40_000))
		if i == 0 {
			el = 1_000_000
		}
		if rank == 1 && clock[rank] >= 5*winNS && clock[rank] < 7*winNS {
			el *= 3
		}
		batch = append(batch, trace.Fragment{
			Rank: rank, Kind: trace.Comp, From: 1, State: 2,
			Start: clock[rank], Elapsed: el,
			Counters: trace.CountersView{TotIns: 600_000 + uint64(rng.Intn(2000))},
		})
		clock[rank] += el
	}
	g.AddBatch(batch)

	check := func(o Options, ws int64, stage string) {
		t.Helper()
		got := a.RunWindow(g, 4, o, ws, ws+12*winNS)
		var want []Region
		for c := 0; c < numClasses; c++ {
			if h := got.Maps[Class(c)]; h != nil {
				want = append(want, GrowRegions(h, got.Samples[Class(c)], o)...)
			}
		}
		sortRegionsByLoss(want)
		if len(want) == 0 || !reflect.DeepEqual(got.Regions, want) {
			t.Fatalf("%s: %d regions, batch GrowRegions finds %d on the same heat map", stage, len(got.Regions), len(want))
		}
	}

	check(opt, 0, "warmup")
	check(opt, winNS, "carry")
	if met.RegionCellsCarried.Load() == 0 {
		t.Fatal("carry path did not engage")
	}

	check(bopt, 2*winNS, "oracle")
	for c := 0; c < numClasses; c++ {
		if a.merger.carry[c] != nil {
			t.Fatalf("class %d carry state survived the oracle pass", c)
		}
	}

	carried := met.RegionCellsCarried.Load()
	check(opt, 3*winNS, "resume")
	if met.RegionCellsCarried.Load() != carried {
		t.Fatal("the first carrying pass after the oracle carried cells from before it")
	}
	check(opt, 4*winNS, "post-resume carry")
	if met.RegionCellsCarried.Load() == carried {
		t.Fatal("carry path did not re-engage")
	}
}
