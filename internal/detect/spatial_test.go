package detect

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"vapro/internal/sim"
)

// spatialSample builds one cell-filling observation. Starts are made
// unique per (rank, win) so sample order is fully determined and the
// merged k-way order matches a global sort exactly.
func spatialSample(rank, win int, window int64, perf float64) Sample {
	return Sample{
		Rank:    rank,
		Start:   int64(win)*window + int64(rank),
		Elapsed: window / 2,
		Perf:    perf,
		Covered: true,
	}
}

// spatialPart assembles one shard's Result from its samples, the way a
// plane's detection pass would: start-sorted samples, a heat map over
// the global rank axis from origin (unowned rows stay NaN), outage
// staleness.
func spatialPart(t *testing.T, ranks int, samples []Sample, window, origin int64, outages []Outage) *Result {
	t.Helper()
	for i := 1; i < len(samples); i++ {
		if samples[i].Start < samples[i-1].Start {
			t.Fatalf("test samples not start-sorted at %d", i)
		}
	}
	h := buildHeatMap(Computation, samples, ranks, sim.Duration(window), origin)
	if h == nil {
		t.Fatal("buildHeatMap returned nil")
	}
	h.markStale(outages, nil)
	res := &Result{
		Origin:      sim.Time(origin),
		Maps:        map[Class]*HeatMap{Computation: h},
		Samples:     map[Class][]Sample{Computation: samples},
		Coverage:    make(map[Class]float64),
		TotalTimeNS: make(map[Class]int64),
		FixedTimeNS: make(map[Class]int64),
	}
	for i := range samples {
		res.TotalTimeNS[Computation] += samples[i].Elapsed
		res.FixedTimeNS[Computation] += samples[i].Elapsed
	}
	return res
}

// partForms are the two shapes a part reaches Merge in: a full Result
// (what bench/'s gate passes: each plane's whole RunWindow) and a
// partial (what the tier's planes hand over: Analyzer.Partial). Merge
// reads only a partial's fields, so both must merge identically.
var partForms = []struct {
	name string
	form func(*Result) *Result
}{
	{"full", func(r *Result) *Result { return r }},
	{"partial", func(r *Result) *Result {
		if r == nil {
			return nil
		}
		p := *r
		p.Maps, p.Regions, p.Coverage = nil, nil, nil
		return &p
	}},
}

// TestSpatialMergeBoundaryStitch pins the tentpole equivalence: a
// variance region straddling a shard boundary (ranks 3 and 4 owned by
// different shards) comes out of the merged grid bit-identical to the
// unsharded batch grower over the same cells and samples, and a stale
// cell inside the blob (lost data on the rank 4 side) stays excluded.
func TestSpatialMergeBoundaryStitch(t *testing.T) {
	const ranks, wins = 8, 4
	const window = int64(100)
	owner := func(r int) int {
		if r < 4 {
			return 0
		}
		return 1
	}
	low := map[[2]int]bool{{3, 1}: true, {3, 2}: true, {4, 1}: true, {4, 2}: true}
	var perShard [2][]Sample
	var global []Sample
	for w := 0; w < wins; w++ {
		for r := 0; r < ranks; r++ {
			perf := 1.0
			if low[[2]int{r, w}] {
				perf = 0.5
			}
			s := spatialSample(r, w, window, perf)
			perShard[owner(r)] = append(perShard[owner(r)], s)
			global = append(global, s)
		}
	}
	// Rank 4's data for window 2 was lost in transit: the owning shard
	// reports the outage, and the merged grid must exclude that cell.
	outages := []Outage{{Rank: 4, Start: 2 * window, End: 3 * window}}
	full := []*Result{
		spatialPart(t, ranks, perShard[0], window, 0, nil),
		spatialPart(t, ranks, perShard[1], window, 0, outages),
	}
	opt := Options{Window: sim.Duration(window), Threshold: 0.85, MinRegionCells: 1, Outages: outages}
	for _, pf := range partForms {
		t.Run(pf.name, func(t *testing.T) {
			parts := []*Result{pf.form(full[0]), pf.form(full[1])}
			spatialBoundaryStitch(t, parts, global, ranks, wins, window, outages, owner, opt)
		})
	}
}

func spatialBoundaryStitch(t *testing.T, parts []*Result, global []Sample, ranks, wins int, window int64, outages []Outage, owner func(int) int, opt Options) {
	m := NewMerger()
	merged, stats := m.Merge(parts, ranks, owner, opt)

	h := merged.Maps[Computation]
	if h == nil || h.Ranks != ranks || h.Windows != wins {
		t.Fatalf("merged map geometry: %+v", h)
	}
	if !h.StaleAt(4, 2) {
		t.Fatal("stale cell not carried through merge")
	}
	if stats.Strips != 2 {
		t.Fatalf("Strips = %d, want 2", stats.Strips)
	}
	if stats.Stitched != 1 {
		t.Fatalf("Stitched = %d, want 1", stats.Stitched)
	}

	// Unsharded reference: the exported batch grower over the same
	// merged inputs.
	want := GrowRegions(h, merged.Samples[Computation], opt)
	if !reflect.DeepEqual(merged.Regions, want) {
		t.Fatalf("stitched regions differ from batch grower:\n got %+v\nwant %+v", merged.Regions, want)
	}
	if len(merged.Regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(merged.Regions))
	}
	reg := merged.Regions[0]
	if reg.RankMin != 3 || reg.RankMax != 4 {
		t.Fatalf("region does not straddle the boundary: %+v", reg)
	}
	if reg.Cells != 3 {
		t.Fatalf("region cells = %d, want 3 (stale cell excluded)", reg.Cells)
	}

	// Unsharded reference the long way: one global pass over all
	// samples must build the identical grid.
	global = append([]Sample(nil), global...)
	sortSamplesByStart(global)
	ref := buildHeatMap(Computation, global, ranks, sim.Duration(window), 0)
	ref.markStale(outages, nil)
	for i := range ref.Cells {
		if math.Float64bits(ref.Cells[i]) != math.Float64bits(h.Cells[i]) {
			t.Fatalf("merged cell %d differs from global pass: %v vs %v", i, h.Cells[i], ref.Cells[i])
		}
	}

	// A second merge over identical parts: the Merger keeps nothing
	// from the first, so its regions are the batch reference's again.
	merged2, _ := m.Merge(parts, ranks, owner, opt)
	if !reflect.DeepEqual(merged2.Regions, want) {
		t.Fatalf("re-merge regions differ:\n got %+v\nwant %+v", merged2.Regions, want)
	}

	// Coverage merges from the raw int64 sums.
	if merged.Coverage[Computation] != 1.0 || merged.OverallCoverage != 1.0 {
		t.Fatalf("coverage: %v overall %v", merged.Coverage[Computation], merged.OverallCoverage)
	}
}

func sortSamplesByStart(s []Sample) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Start < s[j-1].Start; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestSpatialMergeDownShard: a nil part (shard down, nothing delivered
// this window) leaves its ranks' rows NaN — they neither seed nor join
// regions, matching an unsharded run that received none of those
// fragments.
func TestSpatialMergeDownShard(t *testing.T) {
	const ranks = 4
	const window = int64(100)
	owner := func(r int) int { return r % 2 }
	var s0 []Sample
	for w := 0; w < 3; w++ {
		s0 = append(s0, spatialSample(0, w, window, 0.5), spatialSample(2, w, window, 0.5))
	}
	sortSamplesByStart(s0)
	full := spatialPart(t, ranks, s0, window, 0, nil)
	opt := Options{Window: sim.Duration(window), Threshold: 0.85, MinRegionCells: 1}
	for _, pf := range partForms {
		t.Run(pf.name, func(t *testing.T) {
			parts := []*Result{pf.form(full), pf.form(nil)}
			merged, stats := NewMerger().Merge(parts, ranks, owner, opt)
			h := merged.Maps[Computation]
			for w := 0; w < h.Windows; w++ {
				if !math.IsNaN(h.At(1, w)) || !math.IsNaN(h.At(3, w)) {
					t.Fatalf("down shard's rows not NaN at win %d", w)
				}
			}
			// Ranks 0 and 2 are low but separated by the NaN rank-1 row:
			// two regions, neither stitched.
			if len(merged.Regions) != 2 || stats.Stitched != 0 {
				t.Fatalf("regions %d stitched %d, want 2/0", len(merged.Regions), stats.Stitched)
			}
			want := GrowRegions(h, merged.Samples[Computation], opt)
			if !reflect.DeepEqual(merged.Regions, want) {
				t.Fatal("down-shard regions differ from batch grower")
			}
		})
	}
}

// TestSpatialMergeConcurrent drives independent Mergers from many
// goroutines over shared (read-only) part Results — the tier fans
// window merges out this way, so the shared inputs must be data-race
// free under the detector.
func TestSpatialMergeConcurrent(t *testing.T) {
	const ranks = 6
	const window = int64(100)
	owner := func(r int) int { return r / 3 }
	var perShard [2][]Sample
	for w := 0; w < 4; w++ {
		for r := 0; r < ranks; r++ {
			perf := 1.0
			if r == 2 || r == 3 {
				perf = 0.4
			}
			perShard[owner(r)] = append(perShard[owner(r)], spatialSample(r, w, window, perf))
		}
	}
	for i := range perShard {
		sortSamplesByStart(perShard[i])
	}
	full := []*Result{
		spatialPart(t, ranks, perShard[0], window, 0, nil),
		spatialPart(t, ranks, perShard[1], window, 0, nil),
	}
	opt := Options{Window: sim.Duration(window), Threshold: 0.85, MinRegionCells: 1}
	for _, pf := range partForms {
		t.Run(pf.name, func(t *testing.T) {
			parts := []*Result{pf.form(full[0]), pf.form(full[1])}
			ref, _ := NewMerger().Merge(parts, ranks, owner, opt)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					m := NewMerger()
					for pass := 0; pass < 3; pass++ {
						got, _ := m.Merge(parts, ranks, owner, opt)
						if !reflect.DeepEqual(got.Regions, ref.Regions) {
							t.Error("concurrent merge diverged")
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestMergerConcurrentMerges: a Merger keeps nothing between merges, so
// goroutines may share one, and the parts they merge are read-only.
// Each merges the same three parts of two overlapped windows, over and
// over, in either form a part reaches Merge in, and every result must
// deep-equal the window's sequential merge. The race detector
// (check.sh's race stage) flags any state a merge writes.
func TestMergerConcurrentMerges(t *testing.T) {
	const ranks, parts, workers, rounds = 9, 3, 4, 8
	const window = int64(100)
	owner := func(r int) int { return r % parts }
	opt := Options{Window: sim.Duration(window), Threshold: 0.85, MinRegionCells: 1}
	// A slow blob across ranks 2–5 (three owners) and buckets 2–4, seen
	// by both windows: [0, 6) and the overlapped [3, 9) buckets.
	slow := func(r, w int) bool { return r >= 2 && r <= 5 && w >= 2 && w <= 4 }
	var full [2][]*Result
	for wi, origin := range []int{0, 3} {
		samples := make([][]Sample, parts)
		for w := origin; w < origin+6; w++ {
			for r := 0; r < ranks; r++ {
				perf := 1.0
				if slow(r, w) {
					perf = 0.5
				}
				samples[owner(r)] = append(samples[owner(r)], spatialSample(r, w, window, perf))
			}
		}
		for _, s := range samples {
			full[wi] = append(full[wi], spatialPart(t, ranks, s, window, int64(origin)*window, nil))
		}
	}
	for _, pf := range partForms {
		t.Run(pf.name, func(t *testing.T) {
			var windows [2][]*Result
			var want [2]*Result
			for wi := range full {
				for _, p := range full[wi] {
					windows[wi] = append(windows[wi], pf.form(p))
				}
				want[wi], _ = NewMerger().Merge(windows[wi], ranks, owner, opt)
				if len(want[wi].Regions) == 0 {
					t.Fatalf("window %d: the sequential merge grew no region", wi)
				}
			}
			m := NewMerger()
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < rounds*2; i++ {
						wi := (g + i) % 2
						if got, _ := m.Merge(windows[wi], ranks, owner, opt); !reflect.DeepEqual(got, want[wi]) {
							t.Errorf("worker %d: window %d differs from its sequential merge", g, wi)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
