package detect

import (
	"math"

	"vapro/internal/sim"
)

// Stage 2 of a detection pass — the stale marks and region growth — is
// the Merger's, over one or more partials (Analyzer.Partial). An
// Analyzer's own pass is one part: its grid is completed in place. The
// rank-sharded collector tier runs one analysis plane per shard, each
// over only its resident ranks and each binning its own class streams
// into a grid over the global rank axis, and merges the planes'
// partials once: coverage from the summed int64 time sums, one grid per
// class assembled row by row — a rank's row is copied from the part
// that owns it, so a misrouted fragment analyzed by a non-owning shard
// never enters the map or the regions — and regions grown once, their
// members gathered from the owners' streams on region rows only. Rows
// are disjoint across parts and a rank's samples reach its cells in its
// owner's stream order, so every cell is bit-identical to binning the
// parts' streams merged into one; no merged stream is built. That is
// what lets a variance region span a shard boundary: two adjacent rank
// rows owned by different shards stitch into one 4-connected component
// exactly as they would in an unsharded pass. A window's regions depend
// on its grid alone, so a merge keeps nothing from one window to the
// next.

// MergeStats reports what one merge pass combined.
type MergeStats struct {
	// Strips counts the (class, part) pairs that contributed rows to a
	// merged heat map: the part saw the class and owns a rank.
	Strips int
	// Stitched counts merged regions whose rank rows span more than one
	// owning shard — regions that exist only because of the merge.
	Stitched int
}

// Merger completes partials into one Result. It holds no state and
// never writes to a part, so Merge is safe for concurrent calls.
type Merger struct{}

// NewMerger returns a Merger.
func NewMerger() *Merger { return &Merger{} }

// Merge completes parts into one Result over a global rank space of
// size ranks. From each part it reads only a partial's fields — the
// heat maps' cells, the sample streams, time sums, cluster counts and
// origin — so a full Result merges exactly like its partial. Each part's
// maps must cover rows [0, ranks) (Analyzer.Partial and RunWindow over
// the same ranks). owner maps each rank to the index in parts that owns
// it; a rank whose owner slot is nil (shard down, nothing delivered)
// keeps NaN cells, exactly as an unsharded run that received none of
// its fragments would. The parts cover one window: they share
// opt.Window and their origin. Staleness comes from opt.Outages. The
// Result carries no Samples; its regions carry their members.
func (*Merger) Merge(parts []*Result, ranks int, owner func(rank int) int, opt Options) (*Result, MergeStats) {
	res := &Result{
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
	if owner == nil {
		owner = func(int) int { return 0 }
	}
	return res, finish(res, parts, ranks, owner, opt)
}

// classMerge is one class's share of a merge.
type classMerge struct {
	h                *HeatMap
	regions          []Region
	strips, stitched int
}

// finish completes res — whose time sums, cluster counts and origin are
// the parts' totals — from parts: its coverage, then each class's heat
// map and regions, the classes concurrently. A nil owner means res is
// parts[0], a one-plane pass: its own grids are marked and grown in
// place.
func finish(res *Result, parts []*Result, ranks int, owner func(rank int) int, opt Options) MergeStats {
	opt = opt.withDefaults()
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

	var out [numClasses]classMerge
	forEach(numClasses, opt.Parallelism, func(c int) {
		out[c] = mergeClass(Class(c), parts, ranks, owner, int64(res.Origin), opt)
	})
	res.Maps = make(map[Class]*HeatMap)
	var stats MergeStats
	for c := range out {
		o := &out[c]
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

// mergeClass merges one class. The map is as wide as the widest part's
// (a part's width is its own stream's, misrouted samples included); a
// row's stale marks stop at its owner's width.
func mergeClass(class Class, parts []*Result, ranks int, owner func(rank int) int, origin int64, opt Options) (out classMerge) {
	widths := make([]int, len(parts))
	streams := make([][]Sample, len(parts))
	wins := 0
	for i, p := range parts {
		if p == nil {
			continue
		}
		if h := p.Maps[class]; h != nil {
			widths[i] = h.Windows
			wins = max(wins, widths[i])
		}
		streams[i] = p.Samples[class]
	}
	if wins == 0 || ranks <= 0 {
		return out
	}
	var h *HeatMap
	if owner == nil {
		h = parts[0].Maps[class]
		owner = func(int) int { return 0 }
	} else {
		h = gatherRows(class, parts, ranks, owner, origin, opt.Window, wins)
	}
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
	out.regions = findRegions(h, opt)
	attachMembers(out.regions, h, streams, owner)
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

// gatherRows assembles a merged grid wins columns wide: each rank's row
// is its owner's row (NaN past the owner's width), a rank with no owner
// part keeps a NaN row. The parts' maps are only read.
func gatherRows(class Class, parts []*Result, ranks int, owner func(rank int) int, origin int64, window sim.Duration, wins int) *HeatMap {
	h := &HeatMap{Class: class, Ranks: ranks, Windows: wins, Window: window, Origin: sim.Time(origin)}
	h.Cells = make([]float64, ranks*wins)
	for r := 0; r < ranks; r++ {
		row := h.Cells[r*wins : (r+1)*wins]
		n := 0
		if o := owner(r); o >= 0 && o < len(parts) && parts[o] != nil {
			if src := parts[o].Maps[class]; src != nil && r < src.Ranks {
				n = copy(row, src.Cells[r*src.Windows:(r+1)*src.Windows])
			}
		}
		for w := n; w < wins; w++ {
			row[w] = math.NaN()
		}
	}
	return h
}
