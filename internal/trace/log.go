package trace

import (
	"cmp"
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"
)

// The columnar fragment log.
//
// A server keeps every fragment of a run resident, but a fragment's
// 280-byte row is almost entirely zeros and constants: one counter
// group is armed at a time, computation fragments carry no arguments,
// and per STG element the state keys, kind and operation never change.
// A Log therefore stores fragments in fixed-size chunks of columns, and
// every field but the rank is a lane in one of three states:
//
//   - constant: free while the chunk has seen only one value in it (the
//     value of the chunk's first row, usually zero);
//   - narrow: a 4 KB array of int32 deltas from that first-row value,
//     from the first row that differs;
//   - wide: an 8 KB array of the values themselves, from the first row
//     whose delta does not fit an int32 (backfilled once from the
//     deltas or the constant; the lane never narrows again).
//
// Start and Elapsed — with the rank column the only fields a window or
// a watermark reads — are lanes born narrow: inside one chunk the
// starts sit within a second of each other and elapsed times fit 32
// bits, so a computation row (rank, start, elapsed, TOT_INS) costs 16
// bytes. Rank stays an int32 column; what of it does not fit is a lane.
//
// Appending never moves a resident row: a full chunk is simply
// followed by a new one. That makes a LogView — the chunk table header
// plus a length — a physically stable snapshot. The owner keeps
// appending while readers hold views, and the only owner writes a
// reader can observe are the publication of a lane array inside the
// view's tail chunk (one atomic store of the chunk's live or wide mask,
// after the array is filled) and nothing else: rows past the view's
// length, later chunks and chunk-table growth all land in memory the
// view never reads, and a widened lane's narrow array keeps the rows it
// held. A view must be taken with a happens-before edge to its reader
// (the collector takes them under the server lock).

// LogChunkRows is the number of rows in one chunk of a Log.
const LogChunkRows = 1 << logChunkShift

const (
	logChunkShift = 10 // 1024 rows: 4 KB narrow lanes, one page of ranks
	logChunkMask  = LogChunkRows - 1
)

// Lane indexes: the counter lanes in counterLanesInto order, then the
// remaining fields.
const (
	laneTotIns     = 0
	laneLoadStores = 18 // its place in counterLanesInto
)

const (
	laneFrom = numCounterLanes + iota
	laneState
	laneMeta // Kind | Static<<8 | Args.Op<<32
	laneBytes
	lanePeer
	laneTag
	laneFD
	laneMode
	laneTruth
	laneRankHi // what of Rank does not fit the int32 column
	// The hot lanes: narrow from a chunk's first row, never constant,
	// and charged to the chunk rather than counted as lanes.
	laneStart
	laneElapsed
	numLogLanes

	hotLanes = 1<<laneStart | 1<<laneElapsed
)

const metaStatic = 1 << 8

type logLanes [numLogLanes]uint64

// differ returns the set of lanes in which w and o hold different words.
func (w *logLanes) differ(o *logLanes) (m uint64) {
	for k := range w {
		if w[k] != o[k] {
			m |= 1 << k
		}
	}
	return m
}

// logChunk is one fixed-size block of rows. The rank column and the
// lane arrays are separate pointer-free allocations.
type logChunk struct {
	rank *[LogChunkRows]int32

	// live is the set of lanes held as arrays and wide the subset whose
	// array is the 64-bit one. A bit is set — after the array behind it
	// is filled — and never cleared; a lane that turns wide from
	// constant sets its wide bit before its live bit, so a reader loads
	// live, then wide. These two stores are the log's publication points.
	live, wide atomic.Uint64
	// consts[k] is lane k's value in every row while its live bit is
	// clear and the base a narrow lane's deltas are added to; nonzero is
	// the set of lanes where that value is not zero. Both are written
	// only by the chunk's first row, before any view can cover a row of
	// the chunk.
	nonzero uint64
	consts  logLanes
	narrow  [numLogLanes]*[LogChunkRows]int32
	arrs    [numLogLanes]*[LogChunkRows]uint64
}

// at reads lane k of row r under the chunk's live and wide masks,
// loaded in that order.
func (c *logChunk) at(k, r int, live, wide uint64) uint64 {
	switch {
	case live>>k&1 == 0:
		return c.consts[k]
	case wide>>k&1 != 0:
		return c.arrs[k][r]
	}
	return c.consts[k] + uint64(int64(c.narrow[k][r]))
}

// lane reads lane k of row r.
func (c *logChunk) lane(k, r int) uint64 {
	live := c.live.Load()
	if live>>k&1 == 0 {
		return c.consts[k]
	}
	return c.at(k, r, live, c.wide.Load())
}

// startElapsed reads row r's Start and Elapsed, the lanes every chunk
// holds as arrays.
func (c *logChunk) startElapsed(r int) (start, elapsed int64) {
	wide := c.wide.Load()
	return int64(c.at(laneStart, r, hotLanes, wide)), int64(c.at(laneElapsed, r, hotLanes, wide))
}

const (
	logChunkBytes  = int64(unsafe.Sizeof(logChunk{})) + LogChunkRows*(4+4+4)
	logNarrowBytes = LogChunkRows * 4
	logWideBytes   = LogChunkRows * 8
)

// LogStats accumulates the allocation footprint of the logs charged to
// it (NewLog). Reads are lock-free and may run beside appends.
type LogStats struct {
	chunks, lanes, narrow, wide atomic.Int64
}

// Chunks returns the number of chunks allocated.
func (s *LogStats) Chunks() int64 { return s.chunks.Load() }

// Lanes returns the number of lanes held as arrays, narrow or wide, not
// counting Start and Elapsed, which every chunk holds.
func (s *LogStats) Lanes() int64 { return s.lanes.Load() }

// Wide returns the number of lanes widened to 64-bit arrays, Start and
// Elapsed included: the lanes whose deltas overflowed an int32.
func (s *LogStats) Wide() int64 { return s.wide.Load() }

// Bytes returns the heap bytes behind those chunks and lanes: a chunk's
// rank, start and elapsed columns, 4 KB per narrow array and 8 KB per
// wide one (a widened lane keeps its narrow array).
func (s *LogStats) Bytes() int64 {
	return s.Chunks()*logChunkBytes + s.narrow.Load()*logNarrowBytes + s.Wide()*logWideBytes
}

// Log is an append-only columnar fragment log. It has one owner, which
// serialises Append/AppendFrom/View; everyone else reads LogViews.
type Log struct {
	chunks []*logChunk
	n      int
	stats  *LogStats
}

// NewLog returns an empty log whose allocations are charged to stats
// (nil: not accounted).
func NewLog(stats *LogStats) *Log { return &Log{stats: stats} }

// Len returns the number of rows.
func (l *Log) Len() int { return l.n }

// View returns the immutable snapshot of the log's current rows.
func (l *Log) View() LogView { return LogView{chunks: l.chunks, n: l.n} }

// lanesOf flattens f's fields but Rank; lo is the rank column's value.
func lanesOf(f *Fragment, lo int32, w *logLanes) {
	counterLanesInto((*[numCounterLanes]uint64)(w[:numCounterLanes]), &f.Counters)
	w[laneFrom], w[laneState] = f.From, f.State
	meta := uint64(f.Kind) | uint64(f.Args.Op)<<32
	if f.Static {
		meta |= metaStatic
	}
	w[laneMeta] = meta
	w[laneBytes], w[lanePeer], w[laneTag] = uint64(f.Args.Bytes), uint64(f.Args.Peer), uint64(f.Args.Tag)
	w[laneFD], w[laneMode] = uint64(f.Args.FD), uint64(f.Args.Mode)
	w[laneTruth] = f.Truth
	w[laneRankHi] = uint64(int64(f.Rank) - int64(lo))
	w[laneStart], w[laneElapsed] = uint64(f.Start), uint64(f.Elapsed)
}

// Append adds one row. It allocates only when the row opens a chunk,
// is the first of its chunk to differ in some lane, or is the first
// whose delta in some lane does not fit an int32.
func (l *Log) Append(f *Fragment) {
	r := l.n & logChunkMask
	if r == 0 {
		c := &logChunk{rank: new([LogChunkRows]int32)}
		c.narrow[laneStart], c.narrow[laneElapsed] = new([LogChunkRows]int32), new([LogChunkRows]int32)
		c.live.Store(hotLanes)
		l.chunks = append(l.chunks, c)
		if l.stats != nil {
			l.stats.chunks.Add(1)
		}
	}
	c := l.chunks[len(l.chunks)-1]
	lo := int32(f.Rank)
	c.rank[r] = lo
	var w logLanes
	lanesOf(f, lo, &w)
	l.n++
	if r == 0 {
		c.consts, c.nonzero = w, w.differ(&logLanes{})
		return
	}
	// Most lanes of most rows repeat the chunk's constant: find the few
	// that do not, then visit only those and the wide lanes. A narrow
	// array's unwritten rows already hold delta zero.
	live, wide := c.live.Load(), c.wide.Load()
	for m := w.differ(&c.consts) | wide; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		switch d := int64(w[k] - c.consts[k]); {
		case wide>>k&1 != 0:
			c.arrs[k][r] = w[k]
		case int64(int32(d)) != d:
			l.widen(c, k, r, w[k])
		case live>>k&1 != 0:
			c.narrow[k][r] = int32(d)
		default:
			l.materialise(c, k, r, int32(d))
		}
	}
}

// materialise turns lane k of c, constant over rows [0, r), into a
// narrow array holding delta d at row r, and publishes it.
func (l *Log) materialise(c *logChunk, k, r int, d int32) {
	a := new([LogChunkRows]int32)
	a[r] = d
	c.narrow[k] = a
	c.live.Store(c.live.Load() | 1<<k)
	if l.stats != nil {
		l.stats.lanes.Add(1)
		l.stats.narrow.Add(1)
	}
}

// widen turns lane k of c, constant or narrow over rows [0, r), into a
// wide array holding x at row r, and publishes it. The narrow array, if
// any, stays: a reader may still hold the mask that points to it.
func (l *Log) widen(c *logChunk, k, r int, x uint64) {
	a := new([LogChunkRows]uint64)
	v, live := c.consts[k], c.live.Load()
	if live>>k&1 != 0 {
		for i, d := range c.narrow[k][:r] {
			a[i] = v + uint64(int64(d))
		}
	} else if v != 0 {
		for i := range a[:r] {
			a[i] = v
		}
	}
	a[r] = x
	c.arrs[k] = a
	c.wide.Store(c.wide.Load() | 1<<k)
	if l.stats != nil {
		l.stats.wide.Add(1)
	}
	if live>>k&1 == 0 {
		c.live.Store(live | 1<<k)
		if l.stats != nil {
			l.stats.lanes.Add(1)
		}
	}
}

// AppendFrom appends rows [from, v.Len()) of v.
func (l *Log) AppendFrom(v LogView, from int) {
	var f Fragment
	for i := from; i < v.n; i++ {
		v.Read(i, &f)
		l.Append(&f)
	}
}

// LogView is an immutable snapshot of a Log's first Len rows. It is a
// small value: copy it freely. The zero LogView is empty.
type LogView struct {
	chunks []*logChunk
	n      int
}

// LogOf copies frags into a fresh log and returns its view: the
// adapter for callers that hold a plain slice.
func LogOf(frags []Fragment) LogView {
	l := NewLog(nil)
	for i := range frags {
		l.Append(&frags[i])
	}
	return l.View()
}

// Len returns the number of rows.
func (v LogView) Len() int { return v.n }

// Extends reports whether v is the same log as old observed no earlier:
// old's rows are then exactly v's first old.Len() rows. Every view
// extends an empty one.
func (v LogView) Extends(old LogView) bool {
	return old.n == 0 || (v.n >= old.n && v.chunks[0] == old.chunks[0])
}

func (v LogView) row(i int) (*logChunk, int) {
	if uint(i) >= uint(v.n) {
		panic("trace: log row out of range")
	}
	return v.chunks[i>>logChunkShift], i & logChunkMask
}

// Span returns row i's hot columns.
func (v LogView) Span(i int) (rank int, start, elapsed int64) {
	c, r := v.row(i)
	rank = int(int64(c.rank[r]) + int64(c.lane(laneRankHi, r)))
	start, elapsed = c.startElapsed(r)
	return rank, start, elapsed
}

// Kind returns row i's fragment kind.
func (v LogView) Kind(i int) Kind {
	c, r := v.row(i)
	return Kind(c.lane(laneMeta, r))
}

// AllKind reports whether rows [from, Len()) all have kind k. A chunk
// whose kind never varied answers for all its rows at once.
func (v LogView) AllKind(from int, k Kind) bool {
	for i := from; i < v.n; {
		c, r := v.row(i)
		end := min(v.n-i+r, LogChunkRows)
		live, wide := c.live.Load(), c.wide.Load()
		if live>>laneMeta&1 == 0 {
			if Kind(c.consts[laneMeta]) != k {
				return false
			}
		} else {
			for ; r < end; r++ {
				if Kind(c.at(laneMeta, r, live, wide)) != k {
					return false
				}
			}
		}
		i = i&^logChunkMask + end
	}
	return true
}

// Column names a lane a range reader visits.
type Column int

// The columns read a chunk at a time: the two a span index orders and
// filters by, and the 1-D clustering norm.
const (
	ColStart   Column = laneStart
	ColElapsed Column = laneElapsed
	ColTotIns  Column = laneTotIns
)

// Lane is one chunk's column held for reading many of its rows, in the
// lane's state: its wide array, or its narrow array of deltas from
// base, or neither and the value base every row of the chunk holds.
type Lane struct {
	wide   *[LogChunkRows]uint64
	narrow *[LogChunkRows]int32
	base   uint64
}

// At returns the column's value in row r of the chunk (a row index
// modulo LogChunkRows), only at rows the view it came from covers.
func (l *Lane) At(r int) uint64 {
	switch {
	case l.wide != nil:
		return l.wide[r]
	case l.narrow != nil:
		return l.base + uint64(int64(l.narrow[r]))
	}
	return l.base
}

// Lane returns column col of chunk c (rows c·LogChunkRows onwards): the
// range reader. The chunk a view ends in may turn its lane narrow or
// wide later, so a Lane kept for it must be asked again under a longer
// view.
func (v LogView) Lane(col Column, c int) Lane {
	ch := v.chunks[c]
	k := int(col)
	live := ch.live.Load() | hotLanes
	switch {
	case live>>k&1 == 0:
		return Lane{base: ch.consts[k]}
	case ch.wide.Load()>>k&1 != 0:
		return Lane{wide: ch.arrs[k]}
	}
	return Lane{narrow: ch.narrow[k], base: ch.consts[k]}
}

// ReadColumn fills dst with column col of rows [from, from+len(dst)),
// converted to T, fetching each chunk's lane once: the sequential walk
// of a column, at the cost of a loop over each chunk's array.
func ReadColumn[T int64 | float64](v LogView, col Column, from int, dst []T) {
	if from < 0 || from+len(dst) > v.n {
		panic("trace: log rows out of range")
	}
	for i := 0; i < len(dst); {
		row := from + i
		l := v.Lane(col, row>>logChunkShift)
		r := row & logChunkMask
		out := dst[i : i+min(len(dst)-i, LogChunkRows-r)]
		switch {
		case l.wide != nil:
			for q, x := range l.wide[r : r+len(out)] {
				out[q] = T(x)
			}
		case l.narrow != nil:
			for q, d := range l.narrow[r : r+len(out)] {
				out[q] = T(l.base + uint64(int64(d)))
			}
		default:
			x := T(l.base)
			for q := range out {
				out[q] = x
			}
		}
		i += len(out)
	}
}

// fill copies row r's lanes in mask into w, visiting only those present
// in the chunk (the rest stay zero).
func (c *logChunk) fill(r int, mask uint64, w *logLanes) {
	live := c.live.Load()
	wide := c.wide.Load()
	for m := (live | c.nonzero) & mask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		w[k] = c.at(k, r, live, wide)
	}
}

// ReadCounters fills only f.Elapsed and f.Counters from row i — the
// fields diagnose.Metric reads — visiting those lanes only.
func (v LogView) ReadCounters(i int, f *Fragment) {
	c, r := v.row(i)
	var w logLanes
	c.fill(r, 1<<numCounterLanes-1|1<<laneElapsed, &w)
	f.Elapsed = int64(w[laneElapsed])
	setCounterLanes(&f.Counters, *(*[numCounterLanes]uint64)(w[:numCounterLanes]))
}

// workloadLanes are the lanes of a workload vector.
const workloadLanes = 1<<laneTotIns | 1<<laneLoadStores | 1<<laneMeta |
	1<<laneBytes | 1<<lanePeer | 1<<laneTag | 1<<laneMode

// ReadWorkload fills only f.Kind, f.Counters.TotIns and .LoadStores and
// f.Args.Bytes, .Peer, .Tag and .Mode from row i — the fields a
// clustering workload vector is built from — visiting those lanes only.
func (v LogView) ReadWorkload(i int, f *Fragment) {
	c, r := v.row(i)
	var w logLanes
	c.fill(r, workloadLanes, &w)
	f.Kind = Kind(w[laneMeta])
	f.Counters.TotIns, f.Counters.LoadStores = w[laneTotIns], w[laneLoadStores]
	f.Args.Bytes, f.Args.Peer = int(w[laneBytes]), int(w[lanePeer])
	f.Args.Tag, f.Args.Mode = int(w[laneTag]), int(w[laneMode])
}

// Read materialises row i into f, overwriting every field. Only the
// lanes present in the row's chunk are visited.
func (v LogView) Read(i int, f *Fragment) {
	c, r := v.row(i)
	var w logLanes
	c.fill(r, ^uint64(0), &w)
	f.Rank = int(int64(c.rank[r]) + int64(w[laneRankHi]))
	f.Start, f.Elapsed = int64(w[laneStart]), int64(w[laneElapsed])
	setCounterLanes(&f.Counters, *(*[numCounterLanes]uint64)(w[:numCounterLanes]))
	f.From, f.State = w[laneFrom], w[laneState]
	meta := w[laneMeta]
	f.Kind, f.Static = Kind(meta), meta&metaStatic != 0
	f.Args = Args{
		Op:    OpSym(meta >> 32),
		Bytes: int(w[laneBytes]), Peer: int(w[lanePeer]), Tag: int(w[laneTag]),
		FD: int(w[laneFD]), Mode: int(w[laneMode]),
	}
	f.Truth = w[laneTruth]
}

// Slice materialises every row: the adapter for cold readers that want
// plain fragments.
func (v LogView) Slice() []Fragment {
	out := make([]Fragment, v.n)
	for i := range out {
		v.Read(i, &out[i])
	}
	return out
}

// Pick materialises the rows named by idx, in idx order.
func (v LogView) Pick(idx []int32) []Fragment {
	out := make([]Fragment, len(idx))
	for j, i := range idx {
		v.Read(int(i), &out[j])
	}
	return out
}

// PickByTime materialises the rows named by idx in time order: by
// start, then rank, then position. A log's rows are in the order ranks'
// batches reached the server, which varies run to run; a reader that
// sums floats over the rows gets the same bits from every run when it
// reads them in time order. It reorders idx.
func (v LogView) PickByTime(idx []int32) []Fragment {
	slices.SortFunc(idx, func(a, b int32) int {
		ra, sa, _ := v.Span(int(a))
		rb, sb, _ := v.Span(int(b))
		return cmp.Or(cmp.Compare(sa, sb), cmp.Compare(ra, rb), cmp.Compare(a, b))
	})
	return v.Pick(idx)
}
