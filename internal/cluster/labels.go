package cluster

import (
	"encoding/binary"
	"slices"

	"vapro/internal/trace"
)

// The label lane: a Result's Assign.
//
// A cluster gets a label when it is born and keeps it until it
// dissolves, so an advance that inserts a cluster below others shifts
// their indexes but rewrites no fragment's entry. Assign stores labels
// in the shape of a trace.Log lane: chunks of LogChunkRows entries, one
// byte each while every label fits one, two from the first label that
// does not (four past 65 535, which only a multi-D vertex with that
// many workload classes reaches). A lane widens whole, into new chunks,
// and never narrows.
//
// Chunks are copy-on-write. A Result is a chunk table plus a length:
// the advance that follows writes its appended entries in place, past
// every held Result's length, and copies a chunk — and, the first time,
// the table — before it rewrites an entry a held Result can read. So a
// held Result keeps its own chunks and its own label → index table,
// and an advance allocates only the chunks it writes.

const (
	laneRows  = trace.LogChunkRows
	laneShift = 10
	laneMask  = laneRows - 1
)

// labels is one lane: n entries of 1<<shift bytes each. Entries at n and
// past it, in the last chunk, are zero.
type labels struct {
	n      int
	shift  uint8
	chunks [][]byte
}

func (l *labels) at(i int) int {
	if uint(i) >= uint(l.n) {
		panic("cluster: fragment index out of range")
	}
	return get(l.chunks[i>>laneShift], l.shift, i&laneMask)
}

// bytes returns the heap bytes of the lane's chunks.
func (l *labels) bytes() int64 { return int64(len(l.chunks)) * laneRows << l.shift }

func get(b []byte, shift uint8, r int) int {
	switch shift {
	case 0:
		return int(b[r])
	case 1:
		return int(binary.LittleEndian.Uint16(b[2*r:]))
	}
	return int(binary.LittleEndian.Uint32(b[4*r:]))
}

func put(b []byte, shift uint8, r, v int) {
	switch shift {
	case 0:
		b[r] = byte(v)
	case 1:
		binary.LittleEndian.PutUint16(b[2*r:], uint16(v))
	default:
		binary.LittleEndian.PutUint32(b[4*r:], uint32(v))
	}
}

// LabelChunk is one chunk of a Result's labels, held for reading many of
// its entries: the range reader, as trace.Lane is the log's.
type LabelChunk struct {
	b     []byte
	shift uint8
}

// At returns the label of entry r of the chunk (a fragment index modulo
// LogChunkRows), only at entries the Result it came from covers.
func (c LabelChunk) At(r int) int { return get(c.b, c.shift, r) }

// laneWriter writes a new lane: Run's from nothing, an advance's over
// the lane of the Result it advances. Entries below shared are ones a
// held Result can read; a chunk holding one is copied before it is
// written, and the table with it the first time.
type laneWriter struct {
	l      labels
	shared int
	copied []bool // by chunk: copied by this writer (nil: nothing copied yet)
}

// grow extends the lane to n entries. New chunks come from the spare
// ones past the table's length, which are allocated ahead in one slab
// of a sixteenth of the table, up to 16 chunks: a lane allocates once
// per advance however many chunks it appends, and rarely. The spares
// are past every Result's length, so no Result reads them.
func (w *laneWriter) grow(n int) {
	t, size := w.l.chunks, laneRows<<w.l.shift
	for len(t)*laneRows < n {
		if len(t) == cap(t) || t[:len(t)+1][len(t)] == nil {
			k := max((n+laneMask)>>laneShift-len(t), min(len(t)/16, 16))
			slab, grown := make([]byte, k*size), slices.Grow(t, k)
			for i := range k {
				grown = append(grown, slab[i*size:(i+1)*size:(i+1)*size])
			}
			t = grown[:len(t)]
		}
		t = t[:len(t)+1]
	}
	w.l.chunks, w.l.n = t, n
}

// set writes label into entry m, widening the lane first when the label
// does not fit it.
func (w *laneWriter) set(m, label int) {
	for label>>(8<<w.l.shift) != 0 {
		w.widen()
	}
	c, r := m>>laneShift, m&laneMask
	b := w.l.chunks[c]
	if get(b, w.l.shift, r) == label {
		return
	}
	if m < w.shared && (w.copied == nil || !w.copied[c]) {
		if w.copied == nil {
			w.l.chunks = slices.Clone(w.l.chunks)
			w.copied = make([]bool, len(w.l.chunks))
		}
		b = slices.Clone(b)
		w.l.chunks[c], w.copied[c] = b, true
	}
	put(b, w.l.shift, r, label)
}

// widen moves the lane into new chunks twice as wide. None of them is
// shared.
func (w *laneWriter) widen() {
	old, from := w.l.chunks, w.l.shift
	w.l.shift++
	w.l.chunks = make([][]byte, len(old))
	for c, b := range old {
		w.l.chunks[c] = make([]byte, laneRows<<w.l.shift)
		for r := range laneRows {
			put(w.l.chunks[c], w.l.shift, r, get(b, from, r))
		}
	}
	w.shared, w.copied = 0, nil
}
