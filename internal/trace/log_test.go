package trace

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// The columnar log's contract is "a []Fragment that never moves": every
// test here holds it against that model.

// script reads a fuzz input as a stream of small decisions; an
// exhausted input answers zero forever.
type script struct {
	data []byte
}

func (s *script) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *script) done() bool { return len(s.data) == 0 }

// word draws a 64-bit value biased toward the boundaries that matter to
// a column store: zero, small, negative (Peer: -1, SuspensionNS), and
// everything around the int32 rank column's edges.
func (s *script) word() uint64 {
	extremes := [...]uint64{
		0, 1, ^uint64(0), // 0, 1, -1
		math.MaxInt32, math.MaxInt32 + 1, uint64(1) << 32, uint64(1)<<32 + 7,
		^uint64(math.MaxInt32), ^uint64(math.MaxInt32) - 1, // MinInt32, MinInt32-1
		math.MaxInt64, uint64(1) << 63, // MaxInt64, MinInt64
		1 << 40,
	}
	switch sel := s.byte(); {
	case sel < 96:
		return 0
	case sel < 160:
		return uint64(s.byte())
	case sel < 192:
		return -uint64(s.byte()) // a small negative
	case sel < 240:
		return extremes[int(s.byte())%len(extremes)]
	default:
		var v uint64
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(s.byte())
		}
		return v
	}
}

// fragment scripts one row. The shape byte decides which field groups
// are populated at all, so all-zero rows and single-lane rows are as
// likely as full ones.
func (s *script) fragment() Fragment {
	var f Fragment
	shape := s.byte()
	f.Rank = int(int64(s.word()))
	f.Start, f.Elapsed = int64(s.word()), int64(s.word())
	if shape&1 != 0 {
		f.Kind = Kind(s.byte()) // escaped kinds (> Probe) included
		f.From, f.State = s.word(), s.word()
	}
	if shape&2 != 0 {
		var l [numCounterLanes]uint64
		for n := int(s.byte()) % 4; n >= 0; n-- {
			l[int(s.byte())%numCounterLanes] = s.word()
		}
		setCounterLanes(&f.Counters, l)
	}
	if shape&4 != 0 {
		f.Args = Args{
			Op:    OpSym(s.word()),
			Bytes: int(int64(s.word())), Peer: int(int64(s.word())), Tag: int(int64(s.word())),
			FD: int(int64(s.word())), Mode: int(int64(s.word())),
		}
	}
	if shape&8 != 0 {
		f.Static = s.byte()&1 != 0
		f.Truth = s.word()
	}
	return f
}

// modelled is a log beside the plain slice it must equal.
type modelled struct {
	log   *Log
	model []Fragment
}

func (m *modelled) append(f Fragment) {
	m.log.Append(&f)
	m.model = append(m.model, f)
}

// heldView is a view taken at some point of the script; its rows must
// stay model[:n] whatever the owner does afterwards.
type heldView struct {
	v     LogView
	model []Fragment // shares the owner's model prefix; never written again
}

func checkView(t *testing.T, what string, v LogView, model []Fragment) {
	t.Helper()
	if v.Len() != len(model) {
		t.Fatalf("%s: %d rows, model has %d", what, v.Len(), len(model))
	}
	got := v.Slice()
	for i := range model {
		if got[i] != model[i] {
			t.Fatalf("%s: row %d = %+v, model %+v", what, i, got[i], model[i])
		}
		checkCounters(t, v, model, i)
		checkWorkload(t, v, model, i)
		checkStartElapsed(t, v, model, i)
	}
	checkColumns(t, v, model, 0)
	checkColumns(t, v, model, len(model)/3)
}

// checkColumns: the range reader returns rows [from, Len()) of each
// column exactly, under the conversion to the destination type.
func checkColumns(t *testing.T, v LogView, model []Fragment, from int) {
	t.Helper()
	n := len(model) - from
	starts, elapsed, tot := make([]int64, n), make([]int64, n), make([]int64, n)
	norms := make([]float64, n)
	ReadColumn(v, ColStart, from, starts)
	ReadColumn(v, ColElapsed, from, elapsed)
	ReadColumn(v, ColTotIns, from, tot)
	ReadColumn(v, ColTotIns, from, norms)
	for q := range n {
		m := &model[from+q]
		if starts[q] != m.Start || elapsed[q] != m.Elapsed || uint64(tot[q]) != m.Counters.TotIns ||
			norms[q] != float64(m.Counters.TotIns) {
			t.Fatalf("ReadColumn from %d: row %d reads start %d elapsed %d TotIns %d (%g), model %+v",
				from, from+q, starts[q], elapsed[q], tot[q], norms[q], *m)
		}
	}
}

// totIns reads one row's TOT_INS through its chunk's lane.
func totIns(v LogView, i int) uint64 {
	l := v.Lane(ColTotIns, i/LogChunkRows)
	return l.At(i % LogChunkRows)
}

// checkStartElapsed: the start and elapsed lanes return exactly the
// row's Start and Elapsed.
func checkStartElapsed(t *testing.T, v LogView, model []Fragment, i int) {
	t.Helper()
	if start, elapsed := startElapsed(v, i); start != model[i].Start || elapsed != model[i].Elapsed {
		t.Fatalf("start, elapsed lanes of row %d read (%d, %d), model %+v", i, start, elapsed, model[i])
	}
}

// startElapsed reads one row's Start and Elapsed through its chunk's
// lanes.
func startElapsed(v LogView, i int) (start, elapsed int64) {
	s, e := v.Lane(ColStart, i/LogChunkRows), v.Lane(ColElapsed, i/LogChunkRows)
	return int64(s.At(i % LogChunkRows)), int64(e.At(i % LogChunkRows))
}

// checkWorkload: the workload reader fills exactly Read's Kind,
// TotIns, LoadStores, Bytes, Peer, Tag and Mode and touches nothing else.
func checkWorkload(t *testing.T, v LogView, model []Fragment, i int) {
	t.Helper()
	f := Fragment{Rank: -3, Kind: Kind(77), Elapsed: 5, Truth: 99,
		Counters: CountersView{TotIns: 5, LoadStores: 6, SuspensionNS: -9},
		Args:     Args{Op: 3, Bytes: 7, Peer: -8, Tag: 9, FD: 10, Mode: -11}}
	want := f
	m := &model[i]
	want.Kind, want.Counters.TotIns, want.Counters.LoadStores = m.Kind, m.Counters.TotIns, m.Counters.LoadStores
	want.Args.Bytes, want.Args.Peer, want.Args.Tag, want.Args.Mode = m.Args.Bytes, m.Args.Peer, m.Args.Tag, m.Args.Mode
	v.ReadWorkload(i, &f)
	if f != want {
		t.Fatalf("ReadWorkload(%d) = %+v, want %+v", i, f, want)
	}
}

// checkCounters: the narrow reader fills exactly Read's Elapsed and
// Counters and touches nothing else.
func checkCounters(t *testing.T, v LogView, model []Fragment, i int) {
	t.Helper()
	f := Fragment{Rank: -3, Start: 77, Truth: 99, Counters: CountersView{TotIns: 5, SuspensionNS: -9, L2MissStall: 1}}
	want := f
	want.Elapsed, want.Counters = model[i].Elapsed, model[i].Counters
	v.ReadCounters(i, &f)
	if f != want {
		t.Fatalf("ReadCounters(%d) = %+v, want %+v", i, f, want)
	}
}

func checkRow(t *testing.T, v LogView, model []Fragment, i int) {
	t.Helper()
	var f Fragment
	f.Truth, f.Static, f.Args.Peer = 99, true, 5 // Read must overwrite, not merge
	v.Read(i, &f)
	if f != model[i] {
		t.Fatalf("Read(%d) = %+v, model %+v", i, f, model[i])
	}
	rank, start, elapsed := v.Span(i)
	if rank != f.Rank || start != f.Start || elapsed != f.Elapsed {
		t.Fatalf("Span(%d) = (%d, %d, %d), model %+v", i, rank, start, elapsed, model[i])
	}
	if v.Kind(i) != f.Kind || totIns(v, i) != f.Counters.TotIns {
		t.Fatalf("Kind/TotIns(%d) = %v/%d, model %+v", i, v.Kind(i), totIns(v, i), model[i])
	}
	checkCounters(t, v, model, i)
	checkWorkload(t, v, model, i)
	checkStartElapsed(t, v, model, i)
}

// maxScriptRows keeps one fuzz execution to a few chunks.
const maxScriptRows = 4*LogChunkRows + 100

func runLogScript(t *testing.T, data []byte) {
	s := &script{data: data}
	a := &modelled{log: NewLog(nil)}
	b := &modelled{log: NewLog(nil)}
	var held []heldView
	for !s.done() && len(a.model)+len(b.model) < maxScriptRows {
		switch op := s.byte() % 10; op {
		case 0, 1, 2:
			a.append(s.fragment())
		case 3:
			// A run of near-copies: the cheap way across chunk boundaries,
			// and what a real element looks like (constant lanes).
			f := s.fragment()
			for n := int(s.byte()) * 8; n > 0; n-- {
				f.Start += f.Elapsed
				a.append(f)
			}
		case 4:
			// AppendFrom: b's suffix onto a.
			from := 0
			if len(b.model) > 0 {
				from = int(s.byte()) * 16 % (len(b.model) + 1)
			}
			a.log.AppendFrom(b.log.View(), from)
			a.model = append(a.model, b.model[from:]...)
		case 5:
			a, b = b, a
		case 6:
			if len(held) < 8 {
				held = append(held, heldView{v: a.log.View(), model: a.model[:len(a.model):len(a.model)]})
			}
		case 7:
			if n := len(a.model); n > 0 {
				i := (int(s.byte())<<8 | int(s.byte())) % n
				checkRow(t, a.log.View(), a.model, i)
			}
		case 8:
			checkView(t, "Slice", a.log.View(), a.model)
		case 9:
			v := a.log.View()
			n := len(a.model)
			if n == 0 {
				continue
			}
			from := int(s.byte()) * 16 % n
			k := a.model[from].Kind
			want := true
			for _, f := range a.model[from:] {
				want = want && f.Kind == k
			}
			if got := v.AllKind(from, k); got != want {
				t.Fatalf("AllKind(%d, %v) = %v over %d rows, model says %v", from, k, got, n, want)
			}
			idx := []int32{int32(n - 1), int32(from), 0, int32(from)}
			for j, f := range v.Pick(idx) {
				if f != a.model[idx[j]] {
					t.Fatalf("Pick %v: position %d = %+v, model %+v", idx, j, f, a.model[idx[j]])
				}
			}
		}
	}
	checkView(t, "final a", a.log.View(), a.model)
	checkView(t, "final b", b.log.View(), b.model)
	for i, h := range held {
		checkView(t, "held view", h.v, h.model)
		if h.v.Len() > 0 {
			checkRow(t, h.v, h.model, (i*131)%h.v.Len())
		}
	}
	checkView(t, "LogOf", LogOf(a.model), a.model)
}

// The seed scripts are written with an encoder that mirrors the
// decoder above, so each says what it does.

func encWord(v uint64) []byte {
	return []byte{0xF0, byte(v >> 56), byte(v >> 48), byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// encFragment scripts exactly f (which may set at most four counters).
func encFragment(f Fragment) []byte {
	out := []byte{15}
	words := func(vs ...uint64) {
		for _, v := range vs {
			out = append(out, encWord(v)...)
		}
	}
	words(uint64(f.Rank), uint64(f.Start), uint64(f.Elapsed))
	out = append(out, byte(f.Kind))
	words(f.From, f.State)
	var set []int
	for k, v := range counterLanes(&f.Counters) {
		if v != 0 {
			set = append(set, k)
		}
	}
	if len(set) == 0 {
		set = []int{0}
	}
	if len(set) > 4 {
		panic("encFragment: more than four counters")
	}
	out = append(out, byte(len(set)-1))
	lanes := counterLanes(&f.Counters)
	for _, k := range set {
		out = append(out, byte(k))
		words(lanes[k])
	}
	words(uint64(f.Args.Op), uint64(f.Args.Bytes), uint64(f.Args.Peer), uint64(f.Args.Tag), uint64(f.Args.FD), uint64(f.Args.Mode))
	if f.Static {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	words(f.Truth)
	return out
}

func opAppend(f Fragment) []byte       { return append([]byte{0}, encFragment(f)...) }
func opRun(f Fragment, n8 byte) []byte { return append(append([]byte{3}, encFragment(f)...), n8) }
func opAppendFrom(from16 byte) []byte  { return []byte{4, from16} }
func opSwap() []byte                   { return []byte{5} }
func opHold() []byte                   { return []byte{6} }
func opCheckRow(i uint16) []byte       { return []byte{7, byte(i >> 8), byte(i)} }
func opSlice() []byte                  { return []byte{8} }
func opAllKindPick(from16 byte) []byte { return []byte{9, from16} }
func program(ops ...[]byte) (out []byte) {
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}

// logScriptSeeds are the cases the layout had to be designed around;
// the committed corpus under testdata/fuzz holds the same programs plus
// what the fuzzer found interesting.
func logScriptSeeds() [][]byte {
	comp := Fragment{Rank: 3, Kind: Comp, From: 1, State: 2, Start: 100, Elapsed: 10, Counters: CountersView{TotIns: 1_000_000}}
	comm := Fragment{Rank: 5, Kind: Comm, State: 1000, Start: 7, Elapsed: 3,
		Args: Args{Op: OpAllreduce, Bytes: 4096, Peer: -1, Tag: -7, FD: -1, Mode: -2}}
	bigRank := comp
	bigRank.Rank = math.MaxInt32 + 1
	hugeRank := comp
	hugeRank.Rank = math.MinInt64
	susp := comp
	susp.Counters.SuspensionNS = -12345
	escaped := Fragment{Rank: 1, Kind: Kind(200), State: 9, Static: true, Truth: math.MaxUint64}
	// Widening: a rank whose clock runs 5 s ahead of the chunk's first
	// row, an elapsed past int32 and a TOT_INS jump past int32, each
	// against lanes that were constant or narrow before.
	compNarrow := comp
	compNarrow.Counters.TotIns = 1_000_500
	skewed := comp
	skewed.Rank, skewed.Start, skewed.Elapsed = 4, comp.Start+5_000_000_000, 3_000_000_000
	skewed.Counters.TotIns = comp.Counters.TotIns + 5_000_000_000
	behind := comp
	behind.Start = comp.Start - 1<<31 - 1 // the first start a delta cannot reach downward
	edges := func(start, elapsed int64, tot uint64) Fragment {
		f := comp
		f.Start, f.Elapsed, f.Counters.TotIns = start, elapsed, tot
		return f
	}
	return [][]byte{
		{},
		// all-zero rows
		program(opAppend(Fragment{}), opAppend(Fragment{}), opRun(Fragment{}, 10), opSlice(), opCheckRow(40)),
		// one element's run across two chunk boundaries; a view held
		// mid-chunk must survive the lane that materialises after it
		program(opRun(comp, 60), opHold(), opAppend(susp), opRun(comp, 255), opHold(), opRun(comm, 20),
			opCheckRow(481), opCheckRow(2600), opAllKindPick(0), opAllKindPick(200), opSlice()),
		// ranks at and beyond the int32 column, first row and mid-chunk
		program(opAppend(bigRank), opAppend(comp), opAppend(hugeRank), opAppend(Fragment{Rank: math.MaxInt32}),
			opAppend(Fragment{Rank: math.MinInt32}), opAppend(Fragment{Rank: -1}), opCheckRow(0), opCheckRow(2), opSlice()),
		// negative args, negative suspension, escaped kind, static/truth
		program(opAppend(comm), opAppend(susp), opAppend(escaped), opAppend(comm), opHold(), opAppend(escaped),
			opAllKindPick(0), opCheckRow(2), opSlice()),
		// two logs feeding each other with AppendFrom across boundaries
		program(opRun(comm, 70), opSwap(), opRun(comp, 100), opAppendFrom(0), opHold(), opAppendFrom(30),
			opSwap(), opAppendFrom(50), opAppend(escaped), opAppendFrom(255), opSlice(), opSwap(), opSlice()),
		// start, elapsed and TOT_INS go narrow then wide mid-chunk; views
		// held before each step are re-read at the end
		program(opRun(comp, 20), opAppend(compNarrow), opHold(), opRun(compNarrow, 2), opHold(),
			opRun(skewed, 10), opHold(), opCheckRow(150), opCheckRow(200), opAppend(comp),
			opAllKindPick(0), opSlice()),
		// constant lanes jump straight to wide, first in a chunk's second
		// row, then past a chunk boundary while the first chunk's views stay
		program(opAppend(comp), opHold(), opAppend(skewed), opAppend(behind), opHold(),
			opRun(comp, 127), opHold(), opAppend(skewed), opRun(behind, 3), opCheckRow(1), opCheckRow(1030), opSlice()),
		// deltas at the int32 edges: MaxInt32 and MinInt32 stay narrow,
		// one past either end widens
		program(opAppend(edges(0, 0, 0)), opAppend(edges(math.MaxInt32, math.MaxInt32, math.MaxInt32)),
			opAppend(edges(math.MinInt32, 0, uint64(1)<<63)), opHold(),
			opAppend(edges(math.MaxInt32+1, math.MinInt32-1, math.MaxUint64)), opHold(),
			opAppend(edges(math.MinInt32-1, 5, 1)), opCheckRow(1), opCheckRow(3), opSlice()),
	}
}

func FuzzLogRoundTrip(f *testing.F) {
	for _, seed := range logScriptSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runLogScript)
}

// TestLogRoundTripExtremes spells out, without the script indirection,
// the rows the issue names: every one must come back ==.
func TestLogRoundTripExtremes(t *testing.T) {
	rows := []Fragment{
		{},
		{Rank: -1, Start: -5, Elapsed: -7},
		{Rank: math.MaxInt32, Kind: Comm, State: 9, Args: Args{Op: OpRecv, Bytes: -4096, Peer: -1, Tag: -2, FD: -3, Mode: -4}},
		{Rank: math.MaxInt32 + 1, Kind: Kind(200), Static: true, Truth: math.MaxUint64},
		{Rank: math.MinInt32 - 1, Counters: CountersView{SuspensionNS: -1, TotIns: math.MaxUint64, L2MissStall: 1}},
		{Rank: math.MaxInt64, Start: math.MaxInt64, Elapsed: math.MinInt64, Args: Args{Op: OpSym(math.MaxUint32)}},
		{Rank: math.MinInt64, From: math.MaxUint64, State: 1},
		{},
	}
	// Once as the first rows of a log, once deep in a chunk whose
	// constants were set by a different row, once straddling a boundary.
	for _, lead := range []int{0, 3, LogChunkRows - 4} {
		var model []Fragment
		for i := 0; i < lead; i++ {
			model = append(model, Fragment{Rank: i, Kind: Comp, From: 1, State: 2, Start: int64(i), Elapsed: 1,
				Counters: CountersView{TotIns: 1000}})
		}
		model = append(model, rows...)
		checkView(t, "extremes", LogOf(model), model)
		v := LogOf(model)
		for i := range model {
			checkRow(t, v, model, i)
		}
	}
}

// TestLogConstantLanesCostNothing pins the layout claim: rows that
// repeat their chunk's first row in every non-hot field allocate no
// lane, one varying field allocates exactly one lane per chunk, and the
// accounting follows.
func TestLogConstantLanesCostNothing(t *testing.T) {
	var st LogStats
	l := NewLog(&st)
	f := Fragment{Kind: Comm, From: 7, State: 9, Args: Args{Op: OpAllreduce, Bytes: 4096, Peer: -1}}
	const n = 2*LogChunkRows + 10
	for i := 0; i < n; i++ {
		f.Rank, f.Start = i%64, int64(i)
		l.Append(&f)
	}
	if st.Chunks() != 3 || st.Lanes() != 0 {
		t.Fatalf("constant rows: %d chunks, %d lanes; want 3, 0", st.Chunks(), st.Lanes())
	}
	if per := float64(st.Bytes()) / n; per > 32 {
		t.Fatalf("constant rows cost %.1f B each", per)
	}
	f.Args.Bytes = 8192 // one field starts to vary, in the tail chunk only
	l.Append(&f)
	if st.Lanes() != 1 {
		t.Fatalf("one varying field materialised %d lanes", st.Lanes())
	}
}

// TestLogViewStableUnderAppend: readers hold views and re-read their
// prefix while the owner keeps appending — across chunk boundaries, and
// materialising new lanes inside the chunk the readers' views end in.
// Every re-read must equal the first. Run under -race this is the
// structure's proof: lane publication is the only owner write a reader
// can observe.
func TestLogViewStableUnderAppend(t *testing.T) {
	l := NewLog(nil)
	base := Fragment{Kind: Comp, From: 1, State: 2, Elapsed: 10}
	next := func(i int) Fragment {
		f := base
		f.Rank, f.Start = i%7, int64(i)*10
		return f
	}
	const readers = 4
	type handoff struct {
		v     LogView
		first []Fragment
	}
	views := make(chan handoff, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := <-views
			for pass := 0; ; pass++ {
				var f Fragment
				for i := 0; i < h.v.Len(); i++ {
					h.v.Read(i, &f)
					if f != h.first[i] {
						t.Errorf("pass %d: row %d changed under append: %+v, first read %+v", pass, i, f, h.first[i])
						return
					}
					if rank, start, _ := h.v.Span(i); rank != f.Rank || start != f.Start {
						t.Errorf("pass %d: span of row %d changed", pass, i)
						return
					}
					if start, elapsed := startElapsed(h.v, i); start != f.Start || elapsed != f.Elapsed || totIns(h.v, i) != f.Counters.TotIns {
						t.Errorf("pass %d: start, elapsed or TOT_INS of row %d changed", pass, i)
						return
					}
				}
				if !h.v.AllKind(0, Comp) {
					t.Errorf("pass %d: kind changed under append", pass)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	// Views are handed out mid-chunk, at staggered lengths, with only the
	// constant lanes present; the tail chunk of every view is then hit by
	// new lanes (fields that start to vary) and left behind by new chunks.
	n := 0
	for r := 0; r < readers; r++ {
		for target := LogChunkRows/2 + r*100; n < target; n++ {
			f := next(n)
			l.Append(&f)
		}
		v := l.View()
		views <- handoff{v: v, first: v.Slice()}
	}
	vary := []func(f *Fragment, i int){
		func(f *Fragment, i int) { f.Counters.TotIns = uint64(i) },
		func(f *Fragment, i int) { f.Start += 1 << 33 },                    // a rank clock 8.6 s ahead: start widens
		func(f *Fragment, i int) { f.Counters.TotIns = 1<<40 + uint64(i) }, // narrow TOT_INS widens
		func(f *Fragment, i int) { f.Elapsed = 1<<31 + int64(i) },          // elapsed widens
		func(f *Fragment, i int) { f.Counters.SuspensionNS = -int64(i) },
		func(f *Fragment, i int) { f.Args.Peer = -1 },
		func(f *Fragment, i int) { f.From = uint64(i) },
		func(f *Fragment, i int) { f.Kind = Comm },
		func(f *Fragment, i int) { f.Rank = math.MaxInt32 + i },
		func(f *Fragment, i int) { f.Static, f.Truth = true, uint64(i) },
	}
	for ; n < 4*LogChunkRows; n++ {
		f := next(n)
		// Each field starts varying at its own moment, all inside the
		// readers' shared tail chunk.
		for k, fn := range vary {
			if n >= LogChunkRows/2+readers*100+k*10 {
				fn(&f, n)
			}
		}
		l.Append(&f)
	}
	close(stop)
	wg.Wait()
}

// TestLogNarrowRows pins the narrow layout: a computation edge row —
// rank, start, elapsed and a varying TOT_INS — costs 16 bytes plus the
// chunk header's share, every lane stays narrow, and one row whose
// delta overflows widens exactly that lane with one 8 KB array.
func TestLogNarrowRows(t *testing.T) {
	var st LogStats
	l := NewLog(&st)
	f := Fragment{Kind: Comp, From: 1, State: 2}
	for i := 0; i < LogChunkRows; i++ {
		f.Rank, f.Start, f.Elapsed = i%64, 1_000_000_000+int64(i)*900_000, int64(800_000+i%1000)
		f.Counters.TotIns = uint64(2_000_000 + i*7)
		l.Append(&f)
	}
	if st.Chunks() != 1 || st.Lanes() != 1 || st.Wide() != 0 {
		t.Fatalf("one chunk of edge rows: %d chunks, %d lanes, %d wide; want 1, 1, 0", st.Chunks(), st.Lanes(), st.Wide())
	}
	if per := float64(st.Bytes()) / LogChunkRows; per < 16 || per > 17 {
		t.Fatalf("an edge row costs %.2f B, want 16 plus the chunk header", per)
	}
	// Open a second chunk whose TOT_INS lane is narrow, then widen it.
	l.Append(&f)
	f.Counters.TotIns++
	l.Append(&f)
	before := st.Bytes()
	f.Counters.TotIns += 1 << 32
	var m0, m1 runtime.MemStats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.ReadMemStats(&m0)
	l.Append(&f)
	runtime.ReadMemStats(&m1)
	if mallocs, bytes := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc; mallocs != 1 || bytes != logWideBytes {
		t.Fatalf("widening allocated %d objects, %d B; want one array of %d B", mallocs, bytes, logWideBytes)
	}
	if st.Wide() != 1 || st.Lanes() != 2 || st.Bytes()-before != logWideBytes {
		t.Fatalf("after widening: %d wide, %d lanes, +%d B", st.Wide(), st.Lanes(), st.Bytes()-before)
	}
	// The hot columns widen in place: counted wide, not as lanes.
	f.Start += 1 << 32
	f.Elapsed = 1 << 40
	l.Append(&f)
	if st.Wide() != 3 || st.Lanes() != 2 {
		t.Fatalf("after start and elapsed widen: %d wide, %d lanes; want 3, 2", st.Wide(), st.Lanes())
	}
}

// TestLogAppendAllocs: an append that opens no chunk and needs no new
// lane allocates nothing.
func TestLogAppendAllocs(t *testing.T) {
	l := NewLog(new(LogStats))
	f := Fragment{Kind: Comp, From: 1, State: 2, Elapsed: 10, Counters: CountersView{TotIns: 1}}
	l.Append(&f)
	f.Counters.TotIns = 2
	l.Append(&f) // the one lane this stream needs
	const runs = 100
	if 2+runs*4+2+runs+1 >= LogChunkRows {
		t.Fatal("test would cross a chunk boundary")
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for k := 0; k < 4; k++ {
			i++
			f.Rank, f.Start, f.Counters.TotIns = i%64, int64(i), uint64(1000+i)
			l.Append(&f)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm append allocates %.0f times", allocs)
	}
	// Nor once the lane and the start column are wide.
	f.Counters.TotIns, f.Start = 1<<40, 1<<40
	l.Append(&f)
	allocs = testing.AllocsPerRun(runs, func() {
		i++
		f.Rank, f.Start, f.Counters.TotIns = i%64, 1<<40+int64(i), uint64(1<<40+i)
		l.Append(&f)
	})
	if allocs != 0 {
		t.Fatalf("warm append to wide lanes allocates %.0f times", allocs)
	}
	// Reading allocates nothing either.
	v := l.View()
	var out Fragment
	col := make([]float64, v.Len()-7)
	allocs = testing.AllocsPerRun(runs, func() {
		v.Read(v.Len()/2, &out)
		v.ReadWorkload(v.Len()/3, &out)
		v.Span(3)
		startElapsed(v, 5)
		ReadColumn(v, ColTotIns, 7, col)
	})
	if allocs != 0 {
		t.Fatalf("read allocates %.0f times", allocs)
	}
}

// TestLogIndexOutOfRange: a view is bounded by its length, not by its
// tail chunk's capacity.
func TestLogIndexOutOfRange(t *testing.T) {
	l := NewLog(nil)
	f := Fragment{Rank: 1}
	l.Append(&f)
	v := l.View()
	l.Append(&f) // row 1 exists in the chunk, not in v
	for _, i := range []int{-1, 1, LogChunkRows} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("row %d of a 1-row view did not panic", i)
				}
			}()
			v.Span(i)
		}()
	}
}

func TestLogViewExtends(t *testing.T) {
	l := NewLog(nil)
	var empty LogView
	if !empty.Extends(empty) || !l.View().Extends(empty) {
		t.Fatal("everything extends the empty view")
	}
	f := Fragment{Rank: 1}
	l.Append(&f)
	early := l.View()
	for i := 0; i < 2*LogChunkRows; i++ {
		l.Append(&f)
	}
	late := l.View()
	if !late.Extends(early) || !late.Extends(late) {
		t.Fatal("a later view of the same log must extend an earlier one")
	}
	if early.Extends(late) {
		t.Fatal("a shorter view cannot extend a longer one")
	}
	if other := LogOf(late.Slice()); other.Extends(early) || empty.Extends(early) {
		t.Fatal("a copy is another log")
	}
}
