package detect

import (
	"math"
	"reflect"
	"slices"
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
// (what bench/'s gate passes: each plane's whole RunWindow, its maps
// marked stale and grown) and a partial (what the tier's planes hand
// over: Analyzer.Partial, whose maps carry no stale marks). Merge reads
// only a partial's fields, so both must merge identically.
var partForms = []struct {
	name string
	form func(*Result) *Result
}{
	{"full", func(r *Result) *Result { return r }},
	{"partial", asPartial},
}

// asPartial strips a full Result down to what Analyzer.Partial returns.
func asPartial(r *Result) *Result {
	if r == nil {
		return nil
	}
	p := *r
	p.Regions, p.Coverage = nil, nil
	p.Maps = make(map[Class]*HeatMap, len(r.Maps))
	for c, h := range r.Maps {
		u := *h
		u.Stale = nil
		p.Maps[c] = &u
	}
	return &p
}

// shardRun is one part's class stream as an input of ownedStream: the
// part's own order, restricted to the ranks the part owns.
type shardRun struct {
	src   []Sample
	part  int
	ranks int
	owner func(rank int) int
}

func (r *shardRun) next(dst *Sample) bool {
	for len(r.src) > 0 {
		s := &r.src[0]
		r.src = r.src[1:]
		if s.Rank >= 0 && s.Rank < r.ranks && r.owner(s.Rank) == r.part {
			*dst = *s
			return true
		}
	}
	return false
}

// ownedStream is the reference for the stream a merge never builds: the
// parts' class streams, each filtered to the ranks its part owns,
// merged under sampleLess by runMerger, samples equal under sampleLess
// in part order.
func ownedStream(class Class, parts []*Result, ranks int, owner func(rank int) int) []Sample {
	var mg runMerger
	runs := make([]shardRun, len(parts))
	for i, p := range parts {
		if p == nil {
			continue
		}
		runs[i] = shardRun{src: p.Samples[class], part: i, ranks: ranks, owner: owner}
		mg.runs = append(mg.runs, &runs[i])
	}
	return mg.merge(nil)
}

// mergeReference completes parts the long way, from their streams
// alone: each class's owned stream binned into one grid as wide as the
// widest part's stream reaches, marked stale up to each row's owner
// width, and grown by the batch grower over that stream.
func mergeReference(parts []*Result, ranks int, owner func(rank int) int, opt Options) (map[Class]*HeatMap, []Region, map[Class][]Sample) {
	opt = opt.withDefaults()
	var origin int64
	for _, p := range parts {
		if p != nil {
			origin = int64(p.Origin)
		}
	}
	maps := make(map[Class]*HeatMap)
	streams := make(map[Class][]Sample)
	var regions []Region
	for c := Class(0); c < numClasses; c++ {
		widths := make([]int, len(parts))
		wins := 0
		for i, p := range parts {
			if p != nil {
				widths[i] = mapWidth(p.Samples[c], opt.Window, origin)
				wins = max(wins, widths[i])
			}
		}
		if wins == 0 || ranks <= 0 {
			continue
		}
		s := ownedStream(c, parts, ranks, owner)
		h := binHeatMap(c, s, ranks, opt.Window, origin, wins)
		h.markStale(opt.Outages, func(r int) int {
			if o := owner(r); o >= 0 && o < len(parts) {
				return widths[o]
			}
			return 0
		})
		maps[c], streams[c] = h, s
		regions = append(regions, GrowRegions(h, s, opt)...)
	}
	sortRegionsByLoss(regions)
	return maps, regions, streams
}

// checkMerge merges parts and requires the Result to equal the
// reference: every cell by Float64bits, the stale masks, the regions
// with their members (which must also be exactly what a full scan of
// the owned stream per region finds, in its order), no Samples, and the
// parts left as they were.
func checkMerge(t testing.TB, parts []*Result, ranks int, owner func(rank int) int, opt Options) *Result {
	t.Helper()
	type snap struct {
		cells []uint64
		stale []bool
	}
	before := map[[2]int]snap{}
	for i, p := range parts {
		if p == nil {
			continue
		}
		for c, h := range p.Maps {
			before[[2]int{i, int(c)}] = snap{cellBits(h), slices.Clone(h.Stale)}
		}
	}
	merged, _ := NewMerger().Merge(parts, ranks, owner, opt)
	maps, regions, streams := mergeReference(parts, ranks, owner, opt)

	if merged.Samples != nil {
		t.Fatalf("a merged Result carries Samples: %d classes", len(merged.Samples))
	}
	if len(merged.Maps) != len(maps) {
		t.Fatalf("merged %d maps, reference %d", len(merged.Maps), len(maps))
	}
	for c, want := range maps {
		got := merged.Maps[c]
		if got == nil || got.Class != want.Class || got.Ranks != want.Ranks || got.Windows != want.Windows ||
			got.Window != want.Window || got.Origin != want.Origin {
			t.Fatalf("%v map geometry: got %+v, reference %+v", c, got, want)
		}
		if !slices.Equal(cellBits(got), cellBits(want)) {
			t.Fatalf("%v cells differ:\n got %v\nwant %v", c, got.Cells, want.Cells)
		}
		if !slices.Equal(got.Stale, want.Stale) {
			t.Fatalf("%v stale masks differ:\n got %v\nwant %v", c, got.Stale, want.Stale)
		}
	}
	if !reflect.DeepEqual(merged.Regions, regions) {
		t.Fatalf("regions differ from the batch grower over the owned stream:\n got %+v\nwant %+v", merged.Regions, regions)
	}
	for _, reg := range merged.Regions {
		h := merged.Maps[reg.Class]
		t0 := int64(h.Origin) + int64(reg.WinMin)*int64(h.Window)
		t1 := int64(h.Origin) + int64(reg.WinMax+1)*int64(h.Window)
		var want []Sample
		var loss int64
		for _, s := range streams[reg.Class] {
			if s.Rank >= reg.RankMin && s.Rank <= reg.RankMax && s.Start+s.Elapsed > t0 && s.Start < t1 {
				want = append(want, s)
				loss += int64((1 - s.Perf) * float64(s.Elapsed))
			}
		}
		if !reflect.DeepEqual(reg.Samples, want) || reg.LossNS != loss {
			t.Fatalf("region %+v: members differ from a full scan of the owned stream:\n got %+v\nwant %+v",
				reg, reg.Samples, want)
		}
	}
	for i, p := range parts {
		if p == nil {
			continue
		}
		for c, h := range p.Maps {
			b := before[[2]int{i, int(c)}]
			if !slices.Equal(cellBits(h), b.cells) || !slices.Equal(h.Stale, b.stale) {
				t.Fatalf("Merge wrote to part %d's %v map", i, c)
			}
		}
	}
	return merged
}

func cellBits(h *HeatMap) []uint64 {
	out := make([]uint64, len(h.Cells))
	for i, v := range h.Cells {
		out[i] = math.Float64bits(v)
	}
	return out
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

	// Unsharded reference: the exported batch grower over the merged
	// grid and the stream the parts' owned samples merge into.
	want := GrowRegions(h, ownedStream(Computation, parts, ranks, owner), opt)
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
	if len(reg.Samples) != 4 {
		t.Fatalf("region members = %d, want 4 (both rows, both buckets)", len(reg.Samples))
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
	checkMerge(t, parts, ranks, owner, opt)
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
			want := GrowRegions(h, ownedStream(Computation, parts, ranks, owner), opt)
			if !reflect.DeepEqual(merged.Regions, want) {
				t.Fatal("down-shard regions differ from batch grower")
			}
			checkMerge(t, parts, ranks, owner, opt)
		})
	}
}

// straddleParts builds the full-form parts of a 6-rank run whose ranks
// 2–3 are slow in every bucket, across the boundary of two parts that
// own three ranks each.
func straddleParts(t *testing.T, window int64) (full []*Result, ranks int, owner func(int) int) {
	ranks = 6
	owner = func(r int) int { return r / 3 }
	var samples [2][]Sample
	for w := 0; w < 4; w++ {
		for r := 0; r < ranks; r++ {
			perf := 1.0
			if r == 2 || r == 3 {
				perf = 0.4
			}
			samples[owner(r)] = append(samples[owner(r)], spatialSample(r, w, window, perf))
		}
	}
	for _, s := range samples {
		sortSamplesByStart(s)
		full = append(full, spatialPart(t, ranks, s, window, 0, nil))
	}
	return full, ranks, owner
}

// TestSpatialMergeConcurrent drives independent Mergers from many
// goroutines over shared (read-only) part Results — the tier fans
// window merges out this way, so the shared inputs must be data-race
// free under the detector — and the merge they agree on must be the
// reference completion of the parts.
func TestSpatialMergeConcurrent(t *testing.T) {
	const window = int64(100)
	full, ranks, owner := straddleParts(t, window)
	opt := Options{Window: sim.Duration(window), Threshold: 0.85, MinRegionCells: 1}
	for _, pf := range partForms {
		t.Run(pf.name, func(t *testing.T) {
			parts := []*Result{pf.form(full[0]), pf.form(full[1])}
			ref := checkMerge(t, parts, ranks, owner, opt)
			if len(ref.Regions) == 0 {
				t.Fatal("the sequential merge grew no region")
			}
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

// TestMergerConcurrentMerges: a Merger keeps nothing between merges and
// never writes to a part, so goroutines may share one — or each hold a
// fresh one — over the same read-only parts. Every goroutine merges the
// same inputs over and over, in either form a part reaches Merge in,
// and every result must deep-equal the input's sequential merge. The
// race detector (check.sh's race stage) flags any state a merge writes.
func TestMergerConcurrentMerges(t *testing.T) {
	const workers, rounds = 8, 6
	const window = int64(100)
	opt := Options{Window: sim.Duration(window), Threshold: 0.85, MinRegionCells: 1}
	type input struct {
		full  []*Result
		ranks int
		owner func(int) int
	}
	var inputs []input
	// Two overlapped windows, [0, 6) and [3, 9) buckets, over 9 ranks and
	// three parts, both seeing a slow blob across ranks 2–5 (three
	// owners) and buckets 2–4.
	{
		const ranks, parts = 9, 3
		owner := func(r int) int { return r % parts }
		slow := func(r, w int) bool { return r >= 2 && r <= 5 && w >= 2 && w <= 4 }
		for _, origin := range []int{0, 3} {
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
			in := input{ranks: ranks, owner: owner}
			for _, s := range samples {
				in.full = append(in.full, spatialPart(t, ranks, s, window, int64(origin)*window, nil))
			}
			inputs = append(inputs, in)
		}
	}
	{
		full, ranks, owner := straddleParts(t, window)
		inputs = append(inputs, input{full: full, ranks: ranks, owner: owner})
	}
	for _, pf := range partForms {
		t.Run(pf.name, func(t *testing.T) {
			parts := make([][]*Result, len(inputs))
			want := make([]*Result, len(inputs))
			for i, in := range inputs {
				for _, p := range in.full {
					parts[i] = append(parts[i], pf.form(p))
				}
				want[i], _ = NewMerger().Merge(parts[i], in.ranks, in.owner, opt)
				if len(want[i].Regions) == 0 {
					t.Fatalf("input %d: the sequential merge grew no region", i)
				}
			}
			shared := NewMerger()
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					m := shared
					if g%2 == 1 {
						m = NewMerger()
					}
					for i := 0; i < rounds*len(inputs); i++ {
						k := (g + i) % len(inputs)
						if got, _ := m.Merge(parts[k], inputs[k].ranks, inputs[k].owner, opt); !reflect.DeepEqual(got, want[k]) {
							t.Errorf("worker %d: input %d differs from its sequential merge", g, k)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// memberCase is one hand-built merge input: samples placed on parts
// (part may differ from the rank's owner: a misroute), a rank → part
// owner map and outages.
type memberCase struct {
	name    string
	ranks   int
	owner   func(int) int
	samples []placed
	outages []Outage
	check   func(t *testing.T, merged *Result)
}

type placed struct {
	part  int
	class Class
	s     Sample
}

// build assembles each part the way a plane's pass does (scriptedPart),
// in the full form: marked stale by the case's outages.
func (mc *memberCase) build(window int64) []*Result {
	nparts := 0
	for r := 0; r < mc.ranks; r++ {
		nparts = max(nparts, mc.owner(r)+1)
	}
	for _, p := range mc.samples {
		nparts = max(nparts, p.part+1)
	}
	streams := make([][numClasses][]Sample, nparts)
	for _, p := range mc.samples {
		streams[p.part][p.class] = append(streams[p.part][p.class], p.s)
	}
	parts := make([]*Result, nparts)
	for i := range parts {
		parts[i] = scriptedPart(&streams[i], mc.ranks, sim.Duration(window), 0, mc.outages, true)
	}
	return parts
}

// scriptedPart builds one part's Result from its samples the way a
// plane's pass does: every class stream ordered under sampleLess and
// binned over the global rank axis, the time sums, and — in the full
// form — the maps marked stale by outages.
func scriptedPart(streams *[numClasses][]Sample, ranks int, window sim.Duration, origin int64, outages []Outage, full bool) *Result {
	p := &Result{Origin: sim.Time(origin), Maps: map[Class]*HeatMap{}, Samples: map[Class][]Sample{},
		TotalTimeNS: map[Class]int64{}, FixedTimeNS: map[Class]int64{}}
	for c, s := range streams {
		if len(s) == 0 {
			continue
		}
		slices.SortStableFunc(s, compareSamples)
		h := buildHeatMap(Class(c), s, ranks, window, origin)
		if full {
			h.markStale(outages, nil)
		}
		p.Samples[Class(c)], p.Maps[Class(c)] = s, h
		for _, x := range s {
			p.TotalTimeNS[Class(c)] += x.Elapsed
		}
	}
	return p
}

// TestMergeMembers pins the cases member gathering can get wrong
// without the cells noticing, each against the owned-stream reference
// and a full scan per region, in both part forms.
func TestMergeMembers(t *testing.T) {
	const window = int64(100)
	split := func(r int) int { // ranks 0–3 on part 0, 4–7 on part 1
		if r < 4 {
			return 0
		}
		return 1
	}
	// grid places one sample per cell of ranks × wins on its owner, the
	// cells in low at perf 0.5.
	grid := func(ranks, wins int, owner func(int) int, low map[[2]int]bool) []placed {
		var out []placed
		for w := 0; w < wins; w++ {
			for r := 0; r < ranks; r++ {
				perf := 1.0
				if low[[2]int{r, w}] {
					perf = 0.5
				}
				out = append(out, placed{owner(r), Computation, spatialSample(r, w, window, perf)})
			}
		}
		return out
	}
	cases := []memberCase{
		{
			// Row 3 is low in buckets 1–2, row 4 in 2–3: one stitched
			// region over buckets 1–3, whose members include row 3's
			// bucket-3 sample and row 4's bucket-1 one, neither of them
			// in a low cell.
			name: "ragged-stitched-rows", ranks: 8, owner: split,
			samples: grid(8, 5, split, map[[2]int]bool{{3, 1}: true, {3, 2}: true, {4, 2}: true, {4, 3}: true}),
			check: func(t *testing.T, m *Result) {
				if len(m.Regions) != 1 || len(m.Regions[0].Samples) != 6 {
					t.Fatalf("want one region of 6 members, got %+v", m.Regions)
				}
				fast := 0
				for _, s := range m.Regions[0].Samples {
					if s.Perf == 1 {
						fast++
					}
				}
				if fast != 2 {
					t.Fatalf("members outside low cells = %d, want 2", fast)
				}
			},
		},
		{
			// Each part also analyzed the other's fragments (misrouted
			// batches): slow copies of rows 3 and 4, and one far past the
			// grid's end. They widen their part's grid but must reach no
			// cell and no region.
			name: "misrouted", ranks: 8, owner: split,
			samples: append(grid(8, 4, split, map[[2]int]bool{{3, 1}: true, {4, 1}: true}),
				placed{1, Computation, Sample{Rank: 3, Start: 150, Elapsed: 40, Perf: 0.1, FragIndex: 99}},
				placed{0, Computation, Sample{Rank: 4, Start: 160, Elapsed: 40, Perf: 0.1, FragIndex: 99}},
				placed{0, Computation, Sample{Rank: 5, Start: 250, Elapsed: 40, Perf: 0.1, FragIndex: 99}},
				placed{1, Computation, Sample{Rank: 2, Start: 750, Elapsed: 40, Perf: 0.2, FragIndex: 99}},
			),
			check: func(t *testing.T, m *Result) {
				if h := m.Maps[Computation]; h.Windows != 8 {
					t.Fatalf("map width %d, want 8 (the misrouted sample's part reaches bucket 7)", h.Windows)
				}
				if len(m.Regions) != 1 {
					t.Fatalf("want one region, got %+v", m.Regions)
				}
				for _, s := range m.Regions[0].Samples {
					if s.FragIndex == 99 {
						t.Fatalf("a misrouted sample joined the region: %+v", s)
					}
				}
			},
		},
		{
			// Equal starts across parts: rank 3 (part 1) and rank 4
			// (part 0) share every start. An edge sorts before a vertex
			// whatever its part; two samples equal under sampleLess keep
			// part order, so part 0's rank-4 copy comes first.
			name: "equal-start-ties", ranks: 8,
			owner: func(r int) int { return 1 - split(r) },
			samples: []placed{
				{1, Computation, Sample{Rank: 3, Start: 100, Elapsed: 80, Perf: 0.5, ClusterRef: ClusterRef{Vertex: 7}}},
				{0, Computation, Sample{Rank: 4, Start: 100, Elapsed: 80, Perf: 0.5, ClusterRef: ClusterRef{IsEdge: true}}},
				{1, Computation, Sample{Rank: 3, Start: 200, Elapsed: 80, Perf: 0.5, FragIndex: 1}},
				{0, Computation, Sample{Rank: 4, Start: 200, Elapsed: 80, Perf: 0.5, FragIndex: 1}},
				{1, Computation, Sample{Rank: 3, Start: 300, Elapsed: 80, Perf: 0.5, FragIndex: 1}},
				{0, Computation, Sample{Rank: 4, Start: 300, Elapsed: 80, Perf: 0.5, FragIndex: 0}},
			},
			check: func(t *testing.T, m *Result) {
				if len(m.Regions) != 1 {
					t.Fatalf("want one region, got %+v", m.Regions)
				}
				var ranks []int
				for _, s := range m.Regions[0].Samples {
					ranks = append(ranks, s.Rank)
				}
				if want := []int{4, 3, 4, 3, 4, 3}; !slices.Equal(ranks, want) {
					t.Fatalf("member ranks %v, want %v", ranks, want)
				}
			},
		},
		{
			// Part 1 saw no communication at all and part 0 no IO: each
			// class's map holds the other part's rows NaN, and the comm
			// region on part 0's rows still gathers its members.
			name: "part-without-class", ranks: 8, owner: split,
			samples: append(grid(8, 3, split, map[[2]int]bool{{4, 1}: true}),
				placed{0, Communication, Sample{Rank: 2, Start: 110, Elapsed: 60, Perf: 0.3}},
				placed{0, Communication, Sample{Rank: 3, Start: 120, Elapsed: 60, Perf: 0.3}},
				placed{1, IOClass, Sample{Rank: 6, Start: 10, Elapsed: 60, Perf: 1}},
			),
			check: func(t *testing.T, m *Result) {
				if len(m.Maps) != 3 || len(m.Regions) != 2 {
					t.Fatalf("want 3 maps and 2 regions, got %d and %+v", len(m.Maps), m.Regions)
				}
				if h := m.Maps[Communication]; !math.IsNaN(h.At(5, 1)) {
					t.Fatal("a row of the part without communication is not NaN")
				}
			},
		},
		{
			// Outages: one cuts the stitched blob (rank 4, bucket 2), one
			// runs past rank 1's owner's width, where its stale marks stop,
			// and one lies before the origin.
			name: "outages", ranks: 8, owner: split,
			samples: append(grid(8, 4, split, map[[2]int]bool{{3, 1}: true, {3, 2}: true, {4, 1}: true, {4, 2}: true, {4, 3}: true}),
				placed{1, Computation, Sample{Rank: 5, Start: 850, Elapsed: 10, Perf: 1}}),
			outages: []Outage{{Rank: 4, Start: 200, End: 300}, {Rank: 1, Start: 300, End: 900}, {Rank: 2, Start: -50, End: 0}},
			check: func(t *testing.T, m *Result) {
				h := m.Maps[Computation]
				if !h.StaleAt(4, 2) || !h.StaleAt(1, 3) || h.StaleAt(1, 4) || h.StaleAt(2, 0) {
					t.Fatalf("stale marks: (4,2)=%v (1,3)=%v (1,4)=%v (2,0)=%v, want true true false false",
						h.StaleAt(4, 2), h.StaleAt(1, 3), h.StaleAt(1, 4), h.StaleAt(2, 0))
				}
			},
		},
		{
			// A sample with a negative elapsed time is binned at its start,
			// past where its end reaches: its part's grid must be wide
			// enough to hold it, or the copied row loses the cell the
			// owned stream's wider grid bins.
			name: "negative-elapsed", ranks: 2, owner: func(r int) int { return r },
			samples: []placed{
				{0, Computation, Sample{Rank: 0, Start: 100, Elapsed: 50, Perf: 1}},
				{0, Computation, Sample{Rank: 0, Start: 205, Elapsed: -10, Perf: 0.5}},
				{1, Computation, Sample{Rank: 1, Start: 300, Elapsed: 50, Perf: 1}},
			},
			check: func(t *testing.T, m *Result) {
				if h := m.Maps[Computation]; h.Windows != 4 || h.At(0, 2) != 0.5 {
					t.Fatalf("width %d, cell (0,2) = %v; want 4 and 0.5", h.Windows, h.At(0, 2))
				}
			},
		},
	}
	opt := Options{Window: sim.Duration(window), Threshold: 0.85, MinRegionCells: 1}
	for _, mc := range cases {
		t.Run(mc.name, func(t *testing.T) {
			full := mc.build(window)
			o := opt
			o.Outages = mc.outages
			for _, pf := range partForms {
				parts := make([]*Result, len(full))
				for i, p := range full {
					parts[i] = pf.form(p)
				}
				mc.check(t, checkMerge(t, parts, mc.ranks, mc.owner, o))
			}
		})
	}
}

// FuzzMergeRows checks Merge against the reference over scripted parts:
// the script picks the part count, rank count, owners (a rank may have
// no owner part), a down part, the origin, the part form, outages
// (zero-length, before the origin, past a row's owner width, on
// out-of-range ranks) and samples — each on any part (misroutes), any
// rank (out of range too), any class, with negative, zero and
// window-crossing elapsed times and ties under sampleLess.
func FuzzMergeRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 7, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0})
	// Two parts, a stitched slow blob on ranks 2–3, a misroute and an
	// outage.
	f.Add([]byte{1, 5, 0, 0, 1, 1, 0, 0, 0, 1, 1, 4, 3, 30, 10, 1, 3, 25, 10, 3, 0,
		0, 3, 25, 20, 6, 0, 1, 4, 25, 20, 6, 0, 0, 3, 50, 20, 6, 1, 1, 4, 50, 20, 6, 1,
		1, 3, 30, 20, 6, 2, 0, 0, 0, 0, 12, 0})
	// Equal starts on two parts' rows, one part down.
	f.Add([]byte{2, 4, 0, 1, 2, 0, 8, 1, 0, 0, 0, 0, 1, 20, 30, 3, 0, 1, 2, 20, 30, 3, 0,
		2, 3, 20, 30, 3, 0, 0, 1, 40, 30, 67, 1, 1, 2, 40, 30, 3, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		parts, ranks, owner, opt := mergeScript(script)
		checkMerge(t, parts, ranks, owner, opt)
	})
}

// mergeScript decodes a FuzzMergeRows script; a short script reads as
// zeros past its end.
func mergeScript(b []byte) (parts []*Result, ranks int, owner func(int) int, opt Options) {
	const window = 100
	read := func() int {
		if len(b) == 0 {
			return 0
		}
		v := b[0]
		b = b[1:]
		return int(v)
	}
	nparts := 1 + read()%4
	ranks = 1 + read()%10
	owners := make([]int, ranks)
	for r := range owners {
		owners[r] = read() % (nparts + 1) // nparts: no owner part
	}
	owner = func(r int) int { return owners[r] }
	down := read() % 16 // < nparts: that part is down (nil)
	origin := int64(read()%4) * window / 2
	full := read()%2 == 1
	opt = Options{Window: window, Threshold: 0.85, MinRegionCells: 1 + read()%2}
	for n := read() % 4; n > 0; n-- {
		o := Outage{Rank: read()%(ranks+2) - 1, Start: int64(read())*5 - 100}
		o.End = o.Start + int64(read()%32)*20 - 40
		opt.Outages = append(opt.Outages, o)
	}
	perfs := [8]float64{0.3, 0.6, 0.84, 0.85, 0.9, 1, 1, 0.5}
	streams := make([][numClasses][]Sample, nparts)
	for len(b) >= 6 {
		part := read() % nparts
		s := Sample{Rank: read()%(ranks+2) - 1, Start: int64(read()) * 4}
		s.Elapsed = int64(read()%96)*5 - 20
		k := read()
		class := k % numClasses
		s.Perf = perfs[(k/numClasses)%8]
		s.ClusterRef = ClusterRef{IsEdge: k&0x80 != 0, Vertex: uint64(k>>6) & 1}
		s.FragIndex = read() % 4
		streams[part][class] = append(streams[part][class], s)
	}
	parts = make([]*Result, nparts)
	for i := range parts {
		if i != down {
			parts[i] = scriptedPart(&streams[i], ranks, opt.Window, origin, opt.Outages, full)
		}
	}
	return parts, ranks, owner, opt
}
