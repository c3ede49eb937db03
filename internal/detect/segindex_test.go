package detect

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vapro/internal/trace"
)

// mergeSpans is the segment merge of the column index the store kept
// before its segments became positions only, kept verbatim as the
// reference mergeSegments is pinned to: a predates b — every position in
// b is larger than every position in a — so on equal starts a's entries
// go first.
func mergeSpans(a, b spanIndex) spanIndex {
	n := len(a.pos) + len(b.pos)
	out := spanIndex{
		pos:        make([]int32, 0, n),
		starts:     make([]int64, 0, n),
		elapsed:    make([]int64, 0, n),
		maxElapsed: max(a.maxElapsed, b.maxElapsed),
	}
	i, j := 0, 0
	for i < len(a.pos) || j < len(b.pos) {
		if j >= len(b.pos) || (i < len(a.pos) && a.starts[i] <= b.starts[j]) {
			out.pos = append(out.pos, a.pos[i])
			out.starts = append(out.starts, a.starts[i])
			out.elapsed = append(out.elapsed, a.elapsed[i])
			i++
		} else {
			out.pos = append(out.pos, b.pos[j])
			out.starts = append(out.starts, b.starts[j])
			out.elapsed = append(out.elapsed, b.elapsed[j])
			j++
		}
	}
	return out
}

// columnSegs is segIndex's geometric schedule over column segments.
type columnSegs struct{ segs []spanIndex }

func (ix *columnSegs) add(seg spanIndex) {
	if len(seg.pos) == 0 {
		return
	}
	ix.segs = append(ix.segs, seg)
	for n := len(ix.segs); n >= 2 && len(ix.segs[n-1].pos)*2 >= len(ix.segs[n-2].pos); n-- {
		ix.segs[n-2] = mergeSpans(ix.segs[n-2], ix.segs[n-1])
		ix.segs = ix.segs[:n-1]
	}
}

// segCovered stands in for "is a covered sample": any fixed predicate
// on positions does, the index only carries it.
func segCovered(p int32) bool { return p%3 != 1 }

// segFragment draws row i of a schedule. Flavour 0 is a client-shaped
// stream (per-rank clocks, a flush start-ordered per rank); 1 draws
// starts from seven values, so equal starts recur across positions,
// batches and segments; 2 draws negative and extreme starts and elapsed,
// so start-maxElapsed wraps, but only spans whose end Start+Elapsed fits
// int64: the wire decoder rejects the rest, so no element holds one.
func segFragment(rng *rand.Rand, flavour int, clocks []int64, kind trace.Kind) trace.Fragment {
	f := trace.Fragment{Kind: kind, State: 7, Rank: rng.Intn(len(clocks))}
	switch flavour {
	case 0:
		f.Start, f.Elapsed = clocks[f.Rank], int64(900_000+rng.Intn(200_000))
		clocks[f.Rank] += f.Elapsed
	case 1:
		f.Start, f.Elapsed = int64(rng.Intn(7)-3)*1000, int64(rng.Intn(4))*700
	default:
		extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		pick := func() int64 {
			if rng.Intn(4) == 0 {
				return extremes[rng.Intn(len(extremes))]
			}
			return rng.Int63n(2_000_000) - 1_000_000
		}
		for {
			f.Start, f.Elapsed = pick(), pick()
			if end := f.Start + f.Elapsed; (f.Elapsed >= 0) == (end >= f.Start) {
				break // the end did not wrap
			}
		}
	}
	return f
}

// segWindow draws a window: around the data most of the time, at the
// int64 edges (where start-maxElapsed wraps) or inverted some of it.
func segWindow(rng *rand.Rand, lo, hi int64) (int64, int64) {
	switch rng.Intn(8) {
	case 0:
		return math.MinInt64, math.MaxInt64
	case 1:
		return math.MinInt64 + int64(rng.Intn(3)), rng.Int63n(1000) - 500
	case 2:
		s := rng.Int63n(2000) - 1000
		return s, s - int64(rng.Intn(100)) // empty or inverted
	}
	span := hi - lo
	if span <= 0 || span > 1<<40 {
		lo, span = -2_000_000, 4_000_000
	}
	s := lo + rng.Int63n(span+1)
	return s, s + rng.Int63n(span/4+2)
}

// TestSegIndexMatchesColumnIndex: over random append schedules the
// position-only segmented index — classSpans, the gallop merge, the
// candidate search, all reading spans from the log — holds the same
// segments, in the same order, as the column index built from copied
// spans under the same schedule; every window gets the same candidate
// band per segment, the same selection and the same total and covered
// sums; and the segments together answer as one column index over every
// row does, on every flavour.
func TestSegIndexMatchesColumnIndex(t *testing.T) {
	schedules := 90
	if testing.Short() {
		schedules = 20
	}
	rng := rand.New(rand.NewSource(29))
	kinds := []trace.Kind{trace.Comp, trace.Comm, trace.IO, trace.Sync}
	for sched := 0; sched < schedules; sched++ {
		flavour := sched % 3
		log := trace.NewLog(nil)
		clocks := make([]int64, 1+rng.Intn(8))
		var seg [numClasses]segIndex
		var col [numClasses]columnSegs
		for step := 0; step < 10; step++ {
			from := log.Len()
			n := 1 + rng.Intn(700) // batches cross chunk boundaries
			single := rng.Intn(2) == 0
			kind := kinds[rng.Intn(len(kinds))]
			for i := 0; i < n; i++ {
				if !single {
					kind = kinds[rng.Intn(len(kinds))]
				}
				f := segFragment(rng, flavour, clocks, kind)
				log.Append(&f)
			}
			v := log.View()
			segs := classSpans(v, from)
			var ents [numClasses][]spanEnt
			for i := from; i < v.Len(); i++ {
				_, s, el := v.Span(i)
				c := ClassOf(v.Kind(i))
				ents[c] = append(ents[c], spanEnt{start: s, elapsed: el, pos: int32(i), frag: int32(i)})
			}
			for c := range segs {
				seg[c].add(v, segs[c])
				col[c].add(newSpanIndex(ents[c]))
			}
			checkSegIndex(t, rng, v, &seg, &col)
		}
	}
}

// checkSegIndex compares seg with col segment by segment, with a scan of
// every row and with one column index over them.
func checkSegIndex(t *testing.T, rng *rand.Rand, v trace.LogView, seg *[numClasses]segIndex, col *[numClasses]columnSegs) {
	t.Helper()
	var rows [numClasses][]spanEnt
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < v.Len(); i++ {
		_, s, el := v.Span(i)
		c := ClassOf(v.Kind(i))
		rows[c] = append(rows[c], spanEnt{start: s, elapsed: el, pos: int32(i), frag: int32(i), covered: segCovered(int32(i))})
		lo, hi = min(lo, s), max(hi, s)
	}
	for c := range seg {
		ss, cs := seg[c].segs, col[c].segs
		if len(ss) != len(cs) {
			t.Fatalf("class %d: %d segments, the column schedule has %d", c, len(ss), len(cs))
		}
		for si := range ss {
			if !slices.Equal(ss[si].pos, cs[si].pos) || ss[si].maxElapsed != cs[si].maxElapsed {
				t.Fatalf("class %d segment %d: positions or maxElapsed differ from the column segment", c, si)
			}
		}
		all := newSpanIndex(slices.Clone(rows[c]))
		for w := 0; w < 12; w++ {
			start, end := segWindow(rng, lo, hi)
			var sel []int32
			var total, fixed int64
			for si := range ss {
				l, h := ss[si].candidates(v, start, end)
				if cl, ch := cs[si].candidates(start, end); l != cl || h != ch {
					t.Fatalf("class %d segment %d window [%d, %d): band [%d, %d), column band [%d, %d)", c, si, start, end, l, h, cl, ch)
				}
				var segSel, colSel []int32
				for i := l; i < h; i++ {
					p := ss[si].pos[i]
					s, el := v.StartElapsed(int(p))
					if s+el <= start {
						continue
					}
					total += el
					if segCovered(p) {
						fixed += el
					}
					segSel = append(segSel, p)
				}
				for i := l; i < h; i++ {
					if cs[si].starts[i]+cs[si].elapsed[i] > start {
						colSel = append(colSel, cs[si].pos[i])
					}
				}
				if !slices.Equal(segSel, colSel) {
					t.Fatalf("class %d segment %d window [%d, %d): selection differs from the column segment's", c, si, start, end)
				}
				sel = append(sel, segSel...)
			}
			var scanSel []int32
			var scanTotal, scanFixed int64
			for _, e := range rows[c] {
				if e.start < end && e.start+e.elapsed > start {
					scanSel = append(scanSel, e.pos)
					scanTotal += e.elapsed
					if e.covered {
						scanFixed += e.elapsed
					}
				}
			}
			colSel, colFixed := all.selectOverlapping(start, end)
			colTotal := all.sumOverlapping(start, end)
			slices.Sort(sel)
			slices.Sort(colSel)
			if total != scanTotal || fixed != scanFixed || !slices.Equal(sel, scanSel) {
				t.Fatalf("class %d window [%d, %d): total %d fixed %d over %d selected; a scan of every row: %d, %d over %d",
					c, start, end, total, fixed, len(sel), scanTotal, scanFixed, len(scanSel))
			}
			if colTotal != scanTotal || colFixed != scanFixed || !slices.Equal(colSel, scanSel) {
				t.Fatalf("class %d window [%d, %d): one column index: total %d fixed %d over %d selected; a scan: %d, %d over %d",
					c, start, end, colTotal, colFixed, len(colSel), scanTotal, scanFixed, len(scanSel))
			}
		}
	}
}
