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
// A Log therefore stores fragments in fixed-size chunks of columns.
// Rank, Start and Elapsed — the only fields a window or a watermark
// reads — are always present; every other field is a lane that costs
// nothing while the chunk has seen only one value in it (the value of
// the chunk's first row, usually zero) and becomes an 8 KB array the
// first time a row differs.
//
// Appending never moves a resident row: a full chunk is simply
// followed by a new one. That makes a LogView — the chunk table header
// plus a length — a physically stable snapshot. The owner keeps
// appending while readers hold views, and the only owner writes a
// reader can observe are the publication of a lane array inside the
// view's tail chunk (one atomic store of the chunk's live mask, after
// the array is filled) and nothing else: rows past the view's length,
// later chunks and chunk-table growth all land in memory the view
// never reads. A view must be taken with a happens-before edge to its
// reader (the collector takes them under the server lock).

// LogChunkRows is the number of rows in one chunk of a Log.
const LogChunkRows = 1 << logChunkShift

const (
	logChunkShift = 10 // 1024 rows: 8 KB lanes, one page of ranks
	logChunkMask  = LogChunkRows - 1
)

// Lane indexes: the counter lanes in counterLanes order, then the
// remaining non-hot fields.
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
	numLogLanes
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

// logChunk is one fixed-size block of rows. The hot columns and the
// lane arrays are separate pointer-free allocations.
type logChunk struct {
	rank    *[LogChunkRows]int32
	start   *[LogChunkRows]int64
	elapsed *[LogChunkRows]int64

	// live is the set of lanes held as arrays. A bit is set — after the
	// array behind it is filled — and never cleared: this store is the
	// log's one publication point.
	live atomic.Uint64
	// consts[k] is lane k's value in every row while its live bit is
	// clear, and nonzero the set of lanes where that value is not zero.
	// Both are written only by the chunk's first row, before any view
	// can cover a row of the chunk.
	nonzero uint64
	consts  logLanes
	arrs    [numLogLanes]*[LogChunkRows]uint64
}

const (
	logChunkBytes = int64(unsafe.Sizeof(logChunk{})) + LogChunkRows*(4+8+8)
	logLaneBytes  = LogChunkRows * 8
)

// LogStats accumulates the allocation footprint of the logs charged to
// it (NewLog). Reads are lock-free and may run beside appends.
type LogStats struct {
	chunks, lanes atomic.Int64
}

// Chunks returns the number of chunks allocated.
func (s *LogStats) Chunks() int64 { return s.chunks.Load() }

// Lanes returns the number of lane arrays materialised.
func (s *LogStats) Lanes() int64 { return s.lanes.Load() }

// Bytes returns the heap bytes behind those chunks and lanes.
func (s *LogStats) Bytes() int64 {
	return s.Chunks()*logChunkBytes + s.Lanes()*logLaneBytes
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

// lanesOf flattens f's non-hot fields; lo is the rank column's value.
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
}

// Append adds one row. It allocates only when the row opens a chunk or
// is the first of its chunk to differ in some lane.
func (l *Log) Append(f *Fragment) {
	r := l.n & logChunkMask
	if r == 0 {
		l.chunks = append(l.chunks, &logChunk{
			rank:    new([LogChunkRows]int32),
			start:   new([LogChunkRows]int64),
			elapsed: new([LogChunkRows]int64),
		})
		if l.stats != nil {
			l.stats.chunks.Add(1)
		}
	}
	c := l.chunks[len(l.chunks)-1]
	lo := int32(f.Rank)
	c.rank[r], c.start[r], c.elapsed[r] = lo, f.Start, f.Elapsed
	var w logLanes
	lanesOf(f, lo, &w)
	l.n++
	if r == 0 {
		c.consts, c.nonzero = w, w.differ(&logLanes{})
		return
	}
	// Most lanes of most rows repeat the chunk's constant: find the few
	// that do not, then visit only those and the lanes already arrays.
	live := c.live.Load()
	for m := w.differ(&c.consts) | live; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		if live>>k&1 != 0 {
			c.arrs[k][r] = w[k]
		} else {
			l.materialise(c, k, r, w[k])
		}
	}
}

// materialise turns lane k of c, constant over rows [0, r), into an
// array holding x at row r, and publishes it.
func (l *Log) materialise(c *logChunk, k, r int, x uint64) {
	a := new([LogChunkRows]uint64)
	if v := c.consts[k]; v != 0 {
		for i := 0; i < r; i++ {
			a[i] = v
		}
	}
	a[r] = x
	c.arrs[k] = a
	c.live.Store(c.live.Load() | 1<<k)
	if l.stats != nil {
		l.stats.lanes.Add(1)
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

// lane reads lane k of row r.
func (c *logChunk) lane(k, r int) uint64 {
	if c.live.Load()>>k&1 != 0 {
		return c.arrs[k][r]
	}
	return c.consts[k]
}

// Span returns row i's hot columns.
func (v LogView) Span(i int) (rank int, start, elapsed int64) {
	c, r := v.row(i)
	rank = int(c.rank[r])
	if hi := c.lane(laneRankHi, r); hi != 0 {
		rank = int(int64(rank) + int64(hi))
	}
	return rank, c.start[r], c.elapsed[r]
}

// StartElapsed returns row i's Start and Elapsed: the two hot columns a
// span index orders and filters by, without the rank lane.
func (v LogView) StartElapsed(i int) (start, elapsed int64) {
	c, r := v.row(i)
	return c.start[r], c.elapsed[r]
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
		if c.live.Load()>>laneMeta&1 == 0 {
			if Kind(c.consts[laneMeta]) != k {
				return false
			}
		} else {
			for a := c.arrs[laneMeta]; r < end; r++ {
				if Kind(a[r]) != k {
					return false
				}
			}
		}
		i = i&^logChunkMask + end
	}
	return true
}

// TotIns returns row i's Counters.TotIns, the 1-D clustering norm.
func (v LogView) TotIns(i int) uint64 {
	c, r := v.row(i)
	return c.lane(laneTotIns, r)
}

// TotInsLane returns chunk c's TOT_INS lane for a reader that keeps it
// across reads: the chunk's array once the lane is one (index it by row
// modulo LogChunkRows, only at rows the view covers), else nil and the
// value every row of the chunk holds. The chunk a view ends in may turn
// its lane into an array later, so an answer kept for it must be asked
// again under a longer view.
func (v LogView) TotInsLane(c int) (lane *[LogChunkRows]uint64, constant uint64) {
	ch := v.chunks[c]
	if ch.live.Load()>>laneTotIns&1 != 0 {
		return ch.arrs[laneTotIns], 0
	}
	return nil, ch.consts[laneTotIns]
}

// fill copies row r's lanes in mask into w, visiting only those present
// in the chunk (the rest stay zero).
func (c *logChunk) fill(r int, mask uint64, w *logLanes) {
	live := c.live.Load()
	for m := (live | c.nonzero) & mask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		if live>>k&1 != 0 {
			w[k] = c.arrs[k][r]
		} else {
			w[k] = c.consts[k]
		}
	}
}

// ReadCounters fills only f.Elapsed and f.Counters from row i — the
// fields diagnose.Metric reads — visiting counter lanes only.
func (v LogView) ReadCounters(i int, f *Fragment) {
	c, r := v.row(i)
	var w logLanes
	c.fill(r, 1<<numCounterLanes-1, &w)
	f.Elapsed = c.elapsed[r]
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
	f.Start, f.Elapsed = c.start[r], c.elapsed[r]
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
