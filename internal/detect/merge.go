package detect

// sampleRun is one input of a stream merge: a sequence of samples
// already ordered under sampleLess, materialized one at a time.
type sampleRun interface {
	// next writes the run's next sample to dst; false once exhausted.
	next(dst *Sample) bool
}

// runMerger is the one k-way merge every ordered sample stream is built
// by: the analyzer's per-class window stream (runs: each store segment's
// ascending selection). It holds each run's head materialized and a
// binary heap of the heads keyed by Start, so an emitted sample costs
// one next() and about log2(runs) integer compares; a Start tie is
// decided by sampleLess on the two heads, and heads equal under
// sampleLess too by run order. The analyzer keeps one per class and
// reuses its scratch across passes, so a warm merge allocates nothing
// but what dst needs.
type runMerger struct {
	runs  []sampleRun
	heads []Sample
	heap  []runHead
}

// runHead is one live run in the heap: its head's Start and its index.
type runHead struct {
	start int64
	run   int32
}

func (m *runMerger) before(a, b runHead) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	ha, hb := &m.heads[a.run], &m.heads[b.run]
	if sampleLess(ha, hb) {
		return true
	}
	if sampleLess(hb, ha) {
		return false
	}
	return a.run < b.run
}

func (m *runMerger) siftDown(i int) {
	h := m.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && m.before(h[c+1], h[c]) {
			c++
		}
		if !m.before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// merge appends the merge of m.runs to dst and clears the run list.
func (m *runMerger) merge(dst []Sample) []Sample {
	if cap(m.heads) < len(m.runs) {
		m.heads = make([]Sample, len(m.runs))
	}
	m.heads = m.heads[:len(m.runs)]
	m.heap = m.heap[:0]
	for i, r := range m.runs {
		if r.next(&m.heads[i]) {
			m.heap = append(m.heap, runHead{start: m.heads[i].Start, run: int32(i)})
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	for len(m.heap) > 0 {
		top := m.heap[0].run
		dst = append(dst, m.heads[top])
		if m.runs[top].next(&m.heads[top]) {
			m.heap[0].start = m.heads[top].Start
		} else {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.siftDown(0)
	}
	m.reset()
	return dst
}

func (m *runMerger) reset() {
	clear(m.runs) // the runs reference preps and selections; don't pin them
	m.runs = m.runs[:0]
}

// elemRun is one run of an element's window selection: what one span
// index selected, in its order. From a store segment sel names
// fragments, whose samples the store-backed prep derives; from the
// oracle's flat index it names positions in its materialized samples.
type elemRun struct {
	sel    []int32
	store  *prepElem   // store segment
	labels labelReader // the store's label reader for sel
	flat   []Sample    // oracle
}

func (r *elemRun) next(dst *Sample) bool {
	if len(r.sel) == 0 {
		return false
	}
	i := r.sel[0]
	r.sel = r.sel[1:]
	if r.store != nil {
		r.store.sampleAt(i, dst, &r.labels)
	} else {
		*dst = r.flat[i]
	}
	return true
}
