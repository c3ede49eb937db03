package detect

import (
	"cmp"
	"math"
	"slices"
)

// Incremental region growing: the monitor's overlapped windows re-run
// region growing over heat maps that mostly repeat the previous
// window's cells (shifted by the window advance). Carrying a region
// forward is sound on pure grid evidence: a 4-connected component of
// sub-threshold cells is a function of the low() grid alone, so if all
// of a previous region's cells map into the new grid bit-unchanged
// (value and staleness — `!`-stale flips from outage accounting count
// as changes) and none of their 4-neighbors changed, the new grid
// contains exactly the same component. Its BFS visit order is
// shift-invariant (row-major seed, FIFO queue, fixed neighbor order),
// so the carried MeanPerf is bit-identical too. Everything else — new
// columns, changed cells, components that touched them, and components
// too small to have been recorded — re-grows through the normal
// row-major scan over the not-yet-seen cells, and the two lists merge
// by seed index, which reproduces the batch discovery order exactly.
// Region samples and LossNS are always re-attached from the current
// window's sample set (they are window-dependent and cheap relative to
// resident data).

// regionCarryState is one class's carry-over from the previous pass.
type regionCarryState struct {
	origin    int64
	window    int64
	ranks     int
	windows   int
	threshold float64
	minCells  int
	cells     []float64
	stale     []bool
	regions   []carriedRegion
}

// carriedRegion is a recorded region in its grid's coordinates. cells
// is the BFS visit order, so cells[0] is the region's seed (the
// smallest row-major member, which fixes discovery order).
type carriedRegion struct {
	rankMin, rankMax int
	winMin, winMax   int
	meanPerf         float64
	cells            []int32
}

func (s *regionCarryState) staleAt(idx int32) bool {
	return s.stale != nil && s.stale[idx]
}

// growRegionsFor dispatches between the carrying pass and the batch
// oracle, which clears the per-class carry state so nothing stale is
// ever consulted by a later carrying pass.
func (a *Analyzer) growRegionsFor(class Class, h *HeatMap, samples []Sample, opt Options) []Region {
	c := int(class)
	if opt.DisableIncremental {
		a.regionCarry[c] = nil
		return growRegions(h, samples, opt)
	}
	return a.growRegionsInc(c, h, samples, opt)
}

// growRegionsInc is growRegions with carry-over. It runs inside the
// stage-2 per-class fan-out; each class owns its regionCarry slot, so
// the workers never share state.
func (a *Analyzer) growRegionsInc(c int, h *HeatMap, samples []Sample, opt Options) []Region {
	regions, next, carried, regrown := growRegionsCarry(a.regionCarry[c], h, samples, opt)
	if met := a.met; met != nil {
		met.RegionCellsCarried.Add(carried)
		met.RegionCellsRegrown.Add(regrown)
	}
	a.regionCarry[c] = next
	return regions
}

// growRegionsCarry is the carry-over core shared by the per-class
// analyzer slots and the spatial merger's per-class merge state: grow
// regions over h, carrying forward every previous region whose cells
// (and 4-neighborhood) are bit-unchanged after the origin shift, and
// return the next carry basis plus the carried/regrown cell counts for
// the instrumentation.
func growRegionsCarry(prev *regionCarryState, h *HeatMap, samples []Sample, opt Options) (regions []Region, next *regionCarryState, carried, regrown uint64) {
	seen := make([]bool, len(h.Cells))

	// The carry is usable only when the grids are commensurable: same
	// rank axis, same bucket width, same thresholds, and an origin
	// advance that is a whole number of buckets (otherwise old cells
	// straddle new ones and nothing can be compared).
	var shift int
	usable := prev != nil && prev.ranks == h.Ranks && prev.window == int64(h.Window) &&
		prev.threshold == opt.Threshold && prev.minCells == opt.MinRegionCells
	if usable {
		d := int64(h.Origin) - prev.origin
		if d%int64(h.Window) != 0 {
			usable = false
		} else {
			shift = int(d / int64(h.Window))
		}
	}

	type placed struct {
		reg   Region
		cells []int32 // new-grid coordinates, BFS order
	}
	var kept []placed

	if usable {
		// changed[ni]: the new cell has no bit-identical counterpart in
		// the previous grid (value or staleness moved, or the column is
		// new). Regions touching any changed cell re-grow.
		changed := make([]bool, len(h.Cells))
		for r := 0; r < h.Ranks; r++ {
			for w := 0; w < h.Windows; w++ {
				ni := int32(r*h.Windows + w)
				ow := w + shift
				if ow < 0 || ow >= prev.windows {
					changed[ni] = true
					continue
				}
				oi := int32(r*prev.windows + ow)
				if math.Float64bits(prev.cells[oi]) != math.Float64bits(h.Cells[ni]) ||
					prev.staleAt(oi) != h.StaleAt(r, w) {
					changed[ni] = true
				}
			}
		}
	carry:
		for _, pr := range prev.regions {
			newCells := make([]int32, len(pr.cells))
			for i, oc := range pr.cells {
				or, ow := int(oc)/prev.windows, int(oc)%prev.windows
				nw := ow - shift
				if nw < 0 || nw >= h.Windows {
					continue carry
				}
				ni := int32(or*h.Windows + nw)
				if changed[ni] {
					continue carry
				}
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nr2, nw2 := or+d[0], nw+d[1]
					if nr2 < 0 || nr2 >= h.Ranks || nw2 < 0 || nw2 >= h.Windows {
						continue
					}
					if changed[nr2*h.Windows+nw2] {
						continue carry
					}
				}
				newCells[i] = ni
			}
			for _, ni := range newCells {
				seen[ni] = true
			}
			kept = append(kept, placed{
				reg: Region{
					Class:    h.Class,
					RankMin:  pr.rankMin,
					RankMax:  pr.rankMax,
					WinMin:   pr.winMin - shift,
					WinMax:   pr.winMax - shift,
					Cells:    len(pr.cells),
					MeanPerf: pr.meanPerf,
				},
				cells: newCells,
			})
			carried += uint64(len(pr.cells))
		}
	}

	// Re-grow everything not claimed by a carried region: the batch
	// row-major scan and BFS, skipping seen cells. Components too small
	// for MinRegionCells are visited and discarded exactly as in batch.
	low := func(r, w int) bool {
		if h.StaleAt(r, w) {
			return false
		}
		v := h.At(r, w)
		return !math.IsNaN(v) && v < opt.Threshold
	}
	for r := 0; r < h.Ranks; r++ {
		for w := 0; w < h.Windows; w++ {
			idx := r*h.Windows + w
			if seen[idx] || !low(r, w) {
				continue
			}
			reg := Region{Class: h.Class, RankMin: r, RankMax: r, WinMin: w, WinMax: w}
			queue := []int{idx}
			seen[idx] = true
			var perfSum float64
			var cells []int32
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				cr, cw := cur/h.Windows, cur%h.Windows
				reg.Cells++
				perfSum += h.At(cr, cw)
				cells = append(cells, int32(cur))
				if cr < reg.RankMin {
					reg.RankMin = cr
				}
				if cr > reg.RankMax {
					reg.RankMax = cr
				}
				if cw < reg.WinMin {
					reg.WinMin = cw
				}
				if cw > reg.WinMax {
					reg.WinMax = cw
				}
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nr, nw := cr+d[0], cw+d[1]
					if nr < 0 || nr >= h.Ranks || nw < 0 || nw >= h.Windows {
						continue
					}
					ni := nr*h.Windows + nw
					if !seen[ni] && low(nr, nw) {
						seen[ni] = true
						queue = append(queue, ni)
					}
				}
			}
			regrown += uint64(reg.Cells)
			if reg.Cells < opt.MinRegionCells {
				continue
			}
			reg.MeanPerf = perfSum / float64(reg.Cells)
			kept = append(kept, placed{reg: reg, cells: cells})
		}
	}

	// Discovery order: the batch scan finds each component at its
	// smallest row-major cell, which is cells[0] for both carried and
	// re-grown regions.
	slices.SortFunc(kept, func(a, b placed) int { return cmp.Compare(a.cells[0], b.cells[0]) })

	regions = make([]Region, len(kept))
	for i := range kept {
		regions[i] = kept[i].reg
	}
	// Attach member samples and quantify loss — always from the current
	// window's samples (identical to the batch attach loop).
	attachSamples(regions, h, samples)

	// Record this pass as the next window's carry basis.
	ns := &regionCarryState{
		origin:    int64(h.Origin),
		window:    int64(h.Window),
		ranks:     h.Ranks,
		windows:   h.Windows,
		threshold: opt.Threshold,
		minCells:  opt.MinRegionCells,
		cells:     slices.Clone(h.Cells),
		regions:   make([]carriedRegion, len(kept)),
	}
	if h.Stale != nil {
		ns.stale = slices.Clone(h.Stale)
	}
	for i, k := range kept {
		ns.regions[i] = carriedRegion{
			rankMin:  k.reg.RankMin,
			rankMax:  k.reg.RankMax,
			winMin:   k.reg.WinMin,
			winMax:   k.reg.WinMax,
			meanPerf: k.reg.MeanPerf,
			cells:    k.cells,
		}
	}
	return regions, ns, carried, regrown
}
