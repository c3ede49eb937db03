package detect

import "vapro/internal/sim"

// Stage 2 of a detection pass — the heat maps and region growth — is
// the Merger's, over one or more partials (Analyzer.Partial). An
// Analyzer's own pass is one part: its stream is used as is. The
// rank-sharded collector tier runs one analysis plane per shard, each
// over only its resident ranks, and merges the planes' partials once:
// coverage from the summed int64 time sums, one stream per class merged
// from the parts' streams (each filtered to the ranks its part owns, so
// a misrouted fragment never enters the map or the regions), every
// sample binned straight into one grid — rows are disjoint across parts,
// so a merged row is the owner's row — and regions grown once. That is
// what lets a variance region span a shard boundary: two adjacent rank
// rows owned by different shards stitch into one 4-connected component
// exactly as they would in an unsharded pass. A window's regions depend
// on its grid alone, so a merge keeps nothing from one window to the
// next.

// MergeStats reports what one merge pass combined.
type MergeStats struct {
	// Strips counts the (class, part) pairs that binned rows into a
	// merged heat map: the part saw the class and owns a rank.
	Strips int
	// Stitched counts merged regions whose rank rows span more than one
	// owning shard — regions that exist only because of the merge.
	Stitched int
}

// Merger completes partials into one Result. It holds no state, so
// Merge is safe for concurrent calls.
type Merger struct{}

// shardRun is one part's sample stream as a merge input: already
// ordered by the part's own pass, restricted to the ranks the part owns
// (a misrouted fragment analyzed by a non-owning shard must not
// double-attach).
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

// NewMerger returns a Merger.
func NewMerger() *Merger { return &Merger{} }

// Merge completes parts into one Result over a global rank space of
// size ranks. From each part it reads only a partial's fields — the
// sample streams, time sums, cluster counts and origin — so a full
// Result merges exactly like its partial. owner maps each rank to the
// index in parts that owns it; a rank whose owner slot is nil (shard
// down, nothing delivered) keeps NaN cells, exactly as an unsharded run
// that received none of its fragments would. The parts cover one
// window: they share opt.Window and their origin. Staleness comes from
// opt.Outages.
func (*Merger) Merge(parts []*Result, ranks int, owner func(rank int) int, opt Options) (*Result, MergeStats) {
	res := &Result{
		Samples:     make(map[Class][]Sample),
		TotalTimeNS: make(map[Class]int64),
		FixedTimeNS: make(map[Class]int64),
	}
	var total, fixed [numClasses]int64
	for _, p := range parts {
		if p == nil {
			continue
		}
		res.Origin = p.Origin
		res.FixedClusters += p.FixedClusters
		res.SmallClusters += p.SmallClusters
		for c := 0; c < numClasses; c++ {
			total[c] += p.TotalTimeNS[Class(c)]
			fixed[c] += p.FixedTimeNS[Class(c)]
		}
	}
	res.setTimes(&total, &fixed)
	return res, finish(res, parts, ranks, owner, opt)
}

// classMerge is one class's share of a merge.
type classMerge struct {
	samples          []Sample
	h                *HeatMap
	regions          []Region
	strips, stitched int
}

// finish completes res — whose time sums, cluster counts and origin are
// the parts' totals — from parts: its coverage, then each class's
// stream, heat map and regions, the classes concurrently. A nil owner
// means parts[0] owns every rank: its stream is used as is, unfiltered
// and uncopied.
func finish(res *Result, parts []*Result, ranks int, owner func(rank int) int, opt Options) MergeStats {
	if opt.Window <= 0 {
		opt.Window = 500 * sim.Millisecond
	}
	if opt.Threshold <= 0 {
		opt.Threshold = 0.85
	}
	res.Coverage = make(map[Class]float64)
	var allTotal, allFixed int64
	for c, total := range res.TotalTimeNS {
		fixed := res.FixedTimeNS[c]
		allTotal += total
		allFixed += fixed
		if total > 0 {
			res.Coverage[c] = float64(fixed) / float64(total)
		}
	}
	if allTotal > 0 {
		res.OverallCoverage = float64(allFixed) / float64(allTotal)
	}

	res.Maps = make(map[Class]*HeatMap)
	var out [numClasses]classMerge
	forEach(numClasses, opt.Parallelism, func(c int) {
		out[c] = mergeClass(Class(c), parts, ranks, owner, int64(res.Origin), opt)
	})
	var stats MergeStats
	for c := range out {
		o := &out[c]
		if o.samples != nil {
			res.Samples[Class(c)] = o.samples
		}
		if o.h != nil {
			res.Maps[Class(c)] = o.h
			res.Regions = append(res.Regions, o.regions...)
		}
		stats.Strips += o.strips
		stats.Stitched += o.stitched
	}
	sortRegionsByLoss(res.Regions)
	return stats
}

// mergeClass merges one class. A part's width comes from its whole
// stream, misrouted samples included, and the map is as wide as the
// widest part; a row's stale marks stop at its owner's width.
func mergeClass(class Class, parts []*Result, ranks int, owner func(rank int) int, origin int64, opt Options) (out classMerge) {
	widths := make([]int, len(parts))
	wins := 0
	for i, p := range parts {
		if p != nil {
			widths[i] = mapWidth(p.Samples[class], opt.Window, origin)
			wins = max(wins, widths[i])
		}
	}
	if wins == 0 {
		return out
	}
	if owner != nil {
		out.samples = owned(class, parts, ranks, owner)
	} else {
		out.samples = parts[0].Samples[class]
		owner = func(int) int { return 0 }
	}
	if ranks <= 0 {
		return out
	}

	h := binHeatMap(class, out.samples, ranks, opt.Window, origin, wins)
	rowWidth := func(r int) int {
		if o := owner(r); o >= 0 && o < len(parts) {
			return widths[o]
		}
		return 0
	}
	h.markStale(opt.Outages, rowWidth)
	counted := make([]bool, len(parts))
	for r := 0; r < ranks; r++ {
		if o := owner(r); rowWidth(r) > 0 && !counted[o] {
			counted[o] = true
			out.strips++
		}
	}
	out.h = h
	out.regions = growRegions(h, out.samples, opt)
	for i := range out.regions {
		first := owner(out.regions[i].RankMin)
		for r := out.regions[i].RankMin + 1; r <= out.regions[i].RankMax; r++ {
			if owner(r) != first {
				out.stitched++
				break
			}
		}
	}
	return out
}

// owned merges the parts' class streams, each filtered to the ranks its
// part owns, under sampleLess by the same runMerger the analyzer builds
// its streams with. Samples equal under sampleLess (the same element
// and fragment index on two shards) keep part order. The merger is
// local: its heads and heap are O(parts).
func owned(class Class, parts []*Result, ranks int, owner func(rank int) int) []Sample {
	var mg runMerger
	want := 0
	runs := make([]shardRun, len(parts))
	for i, p := range parts {
		if p == nil {
			continue
		}
		runs[i] = shardRun{src: p.Samples[class], part: i, ranks: ranks, owner: owner}
		want += len(runs[i].src)
		mg.runs = append(mg.runs, &runs[i])
	}
	return mg.merge(make([]Sample, 0, want))
}
