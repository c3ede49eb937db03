package collector

import (
	"vapro/internal/sim"
	"vapro/internal/trace"
)

// watermark tracks how far each provisioned rank has reported in
// virtual time, and the two aggregates the online loop needs: the
// minimum across ranks (a window is analyzable once every rank has
// advanced past its end) and the maximum (where Flush stops).
//
// Marks live in a dense slice over [0, ranks). A rank id outside that
// range is not a client the monitor was provisioned for: it never counts
// toward the quorum, never joins the minimum and never grows the slice
// (its fragments are still stored by the pool). Counting every id used
// to let one stray rank complete the quorum early — closing windows
// before the last real rank had reported.
//
// The minimum is cached and rescanned only when the rank holding it
// advances (or the quorum completes); every other batch is O(1).
type watermark struct {
	marks   []sim.Time // per rank; -1 until the rank first reports
	seen    int        // ranks that have reported at least once
	min     sim.Time   // valid once seen == len(marks)
	minRank int
	max     sim.Time
}

func newWatermark(ranks int) watermark {
	w := watermark{marks: make([]sim.Time, max(ranks, 0))}
	for i := range w.marks {
		w.marks[i] = -1
	}
	return w
}

// observe advances rank's mark to the latest fragment end in frags. A
// batch with no fragments still counts the rank as having reported.
func (w *watermark) observe(rank int, frags []trace.Fragment) {
	if rank < 0 || rank >= len(w.marks) {
		return
	}
	old := w.marks[rank]
	high := old
	if old < 0 {
		high = 0
		w.seen++
	}
	for i := range frags {
		if e := sim.Time(frags[i].End()); e > high {
			high = e
		}
	}
	w.marks[rank] = high
	if high > w.max {
		w.max = high
	}
	if w.seen == len(w.marks) && (old < 0 || (rank == w.minRank && high > old)) {
		w.min, w.minRank = w.marks[0], 0
		for r, t := range w.marks {
			if t < w.min {
				w.min, w.minRank = t, r
			}
		}
	}
}

// low returns the minimum mark across ranks, 0 until every provisioned
// rank has reported at least once.
func (w *watermark) low() sim.Time {
	if w.seen < len(w.marks) {
		return 0
	}
	return w.min
}

// high returns the maximum mark across ranks.
func (w *watermark) high() sim.Time { return w.max }
