package stg

import (
	"testing"
	"testing/quick"

	"vapro/internal/trace"
)

func fragComp(rank int, from, to uint64, start, elapsed int64) trace.Fragment {
	return trace.Fragment{Rank: rank, Kind: trace.Comp, From: from, State: to, Start: start, Elapsed: elapsed}
}

func fragComm(rank int, state uint64, start, elapsed int64) trace.Fragment {
	return trace.Fragment{Rank: rank, Kind: trace.Comm, State: state, Start: start, Elapsed: elapsed}
}

func TestAddRouting(t *testing.T) {
	g := New()
	g.AddBatch([]trace.Fragment{fragComp(0, 1, 2, 0, 10)})
	g.AddBatch([]trace.Fragment{fragComm(0, 2, 10, 5)})
	if g.NumEdges() != 1 || g.NumVertices() != 1 || g.NumFragments() != 2 {
		t.Fatalf("routing: %s", g)
	}
	if e := g.Edge(trace.EdgeKey{From: 1, To: 2}); e == nil || e.Log().Len() != 1 {
		t.Fatal("comp fragment not on edge")
	}
	if v := g.Vertex(2); v == nil || v.Log().Len() != 1 || v.Kind != trace.Comm {
		t.Fatal("comm fragment not on vertex")
	}
}

func TestDeterministicIteration(t *testing.T) {
	// The element lists are kept in key order by insertion, whatever
	// order the elements first appear in.
	build := func(stride uint64) *Graph {
		g := New()
		for j := uint64(0); j < 50; j++ {
			i := j * stride % 50
			g.AddBatch([]trace.Fragment{fragComp(0, i%7, i, 0, 1)})
			g.AddBatch([]trace.Fragment{fragComm(0, i, 0, 1)})
		}
		return g
	}
	a, b := build(1), build(37)
	ae, be := a.Edges(), b.Edges()
	if len(ae) != 50 || len(be) != 50 {
		t.Fatalf("%d and %d edges", len(ae), len(be))
	}
	for i := range ae {
		if ae[i].Key != be[i].Key {
			t.Fatal("edge iteration order not deterministic")
		}
		if i > 0 && (ae[i-1].Key.From > ae[i].Key.From ||
			(ae[i-1].Key.From == ae[i].Key.From && ae[i-1].Key.To >= ae[i].Key.To)) {
			t.Fatalf("edges not in key order at %d", i)
		}
	}
	av, bv := a.Vertices(), b.Vertices()
	if len(av) != 50 || len(bv) != 50 {
		t.Fatalf("%d and %d vertices", len(av), len(bv))
	}
	for i := range av {
		if av[i].Key != bv[i].Key {
			t.Fatal("vertex iteration order not deterministic")
		}
		if i > 0 && av[i-1].Key >= av[i].Key {
			t.Fatalf("vertices not in key order at %d", i)
		}
	}
}

// Property: fragment conservation — every added fragment is findable,
// and Merge preserves the total.
func TestFragmentConservation(t *testing.T) {
	f := func(seeds []uint16) bool {
		g1, g2 := New(), New()
		n := 0
		for i, s := range seeds {
			fr := fragComp(i%4, uint64(s%7), uint64(s%5), int64(i), 1)
			if s%3 == 0 {
				fr.Kind = trace.Comm
			}
			if i%2 == 0 {
				g1.AddBatch([]trace.Fragment{fr})
			} else {
				g2.AddBatch([]trace.Fragment{fr})
			}
			n++
		}
		g1.Merge(g2)
		return g1.NumFragments() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsMaintainedOnAdd(t *testing.T) {
	g := New()
	if _, _, ok := g.Bounds(); ok {
		t.Fatal("empty graph reported bounds")
	}
	g.AddBatch([]trace.Fragment{fragComp(0, 1, 2, 100, 50)}) // [100, 150)
	g.AddBatch([]trace.Fragment{fragComp(0, 1, 2, 20, 10)})  // [20, 30)
	g.AddBatch([]trace.Fragment{fragComm(0, 2, 400, 25)})    // [400, 425)
	e := g.Edge(trace.EdgeKey{From: 1, To: 2})
	if e.MinStart != 20 || e.MaxEnd != 150 {
		t.Fatalf("edge bounds [%d, %d)", e.MinStart, e.MaxEnd)
	}
	v := g.Vertex(2)
	if v.MinStart != 400 || v.MaxEnd != 425 {
		t.Fatalf("vertex bounds [%d, %d)", v.MinStart, v.MaxEnd)
	}
	lo, hi, ok := g.Bounds()
	if !ok || lo != 20 || hi != 425 {
		t.Fatalf("graph bounds [%d, %d) ok=%v", lo, hi, ok)
	}
}

// TestOverlapsExactOnGaps: element envelopes can cover a window that no
// fragment touches; Overlaps must confirm per fragment, not per bound.
func TestOverlapsExactOnGaps(t *testing.T) {
	g := New()
	g.AddBatch([]trace.Fragment{fragComp(0, 1, 2, 0, 10)})   // [0, 10)
	g.AddBatch([]trace.Fragment{fragComp(0, 1, 2, 200, 10)}) // [200, 210)
	if !g.Overlaps(0, 5) || !g.Overlaps(205, 300) {
		t.Fatal("missed real overlap")
	}
	if g.Overlaps(50, 150) {
		t.Fatal("bounds-gap window reported as overlapping")
	}
	if g.Overlaps(10, 200) {
		t.Fatal("half-open boundary treated as overlap")
	}
}

func TestPutMatchesAdd(t *testing.T) {
	added, put := New(), New()
	frags := []trace.Fragment{
		fragComp(0, 1, 2, 50, 10),
		fragComp(1, 1, 2, 5, 10),
	}
	vfrags := []trace.Fragment{fragComm(0, 9, 70, 5)}
	for _, f := range frags {
		added.AddBatch([]trace.Fragment{f})
	}
	for _, f := range vfrags {
		added.AddBatch([]trace.Fragment{f})
	}
	key := trace.EdgeKey{From: 1, To: 2}
	put.AliasEdge(key, trace.LogOf(frags))
	put.AliasVertex(9, trace.Comm, trace.LogOf(vfrags))
	if put.NumFragments() != added.NumFragments() {
		t.Fatalf("frag count %d, want %d", put.NumFragments(), added.NumFragments())
	}
	ea, ep := added.Edge(key), put.Edge(key)
	if ep.Gen != ea.Gen || ep.MinStart != ea.MinStart || ep.MaxEnd != ea.MaxEnd {
		t.Fatalf("edge meta: put %+v, add %+v", ep, ea)
	}
	va, vp := added.Vertex(9), put.Vertex(9)
	if vp.Gen != va.Gen || vp.MinStart != va.MinStart || vp.MaxEnd != va.MaxEnd || vp.Kind != va.Kind {
		t.Fatalf("vertex meta: put %+v, add %+v", vp, va)
	}
	// Pointing the edge at a grown copy — another log, whatever its
	// contents — adjusts the count and bounds and must take an epoch
	// bump (this is NOT a verified append).
	grown := trace.NewLog(nil)
	grown.AppendFrom(trace.LogOf(frags), 0)
	extra := fragComp(2, 1, 2, 500, 10)
	grown.Append(&extra)
	epoch0 := put.Edge(key).Gen.Epoch
	put.AliasEdge(key, grown.View())
	if put.NumFragments() != 4 {
		t.Fatalf("frag count after regrow: %d", put.NumFragments())
	}
	if ep := put.Edge(key); ep.MaxEnd != 510 || ep.Gen.Count != 3 || ep.Gen.Epoch != epoch0+1 {
		t.Fatalf("edge meta after regrow: %+v", ep)
	}
	// A later view of the same log keeps the epoch: the rows the edge
	// held are a prefix of it by construction.
	extra = fragComp(3, 1, 2, 600, 10)
	grown.Append(&extra)
	put.AliasEdge(key, grown.View())
	if ep2 := put.Edge(key); ep2.Gen.Epoch != epoch0+1 || ep2.Gen.Count != 4 || ep2.MaxEnd != 610 {
		t.Fatalf("edge gen after in-place extension: %+v", ep2.Gen)
	}
	if put.NumFragments() != 5 {
		t.Fatalf("frag count after extension: %d", put.NumFragments())
	}
	// Add on an aliasing element copies the rows into a log of its own
	// first: the aliased log is untouched, the edge's rows stay a prefix.
	put.AddBatch([]trace.Fragment{fragComp(4, 1, 2, 700, 10)})
	if ep3 := put.Edge(key); ep3.Gen.Epoch != epoch0+1 || ep3.Gen.Count != 5 || ep3.MaxEnd != 710 || ep3.Log().Len() != 5 {
		t.Fatalf("edge after add-on-alias: %+v", ep3.Gen)
	}
	if grown.Len() != 4 {
		t.Fatalf("add-on-alias wrote into the aliased log: %d rows", grown.Len())
	}
}

func TestStats(t *testing.T) {
	g := New()
	g.AddBatch([]trace.Fragment{fragComp(0, 1, 2, 0, 100)})
	g.AddBatch([]trace.Fragment{fragComm(0, 2, 100, 50)})
	g.AddBatch([]trace.Fragment{{Rank: 0, Kind: trace.IO, State: 3, Elapsed: 25}})
	s := g.Stats()
	if s.CompFragments != 1 || s.CommFragments != 1 || s.IOFragments != 1 {
		t.Fatalf("stats counts: %+v", s)
	}
	if s.TotalCompTime != 100 || s.TotalVertexTime != 75 {
		t.Fatalf("stats times: %+v", s)
	}
}

func TestNames(t *testing.T) {
	g := New()
	g.SetName(5, "cg.f:1170")
	if g.Name(5) != "cg.f:1170" {
		t.Fatal("name not recorded")
	}
	if g.Name(trace.EntryState.Key) != trace.EntryState.Name {
		t.Fatal("entry name missing")
	}
	if g.Name(999) == "" {
		t.Fatal("unknown key must render something")
	}
	// First name wins.
	g.SetName(5, "other")
	if g.Name(5) != "cg.f:1170" {
		t.Fatal("name overwritten")
	}
}

func TestMergeNames(t *testing.T) {
	a, b := New(), New()
	b.SetName(1, "site-a")
	a.Merge(b)
	if a.Name(1) != "site-a" {
		t.Fatal("merge dropped names")
	}
}

// extend grows a view-owned log the way the collector's merged view
// does — AppendFrom the new rows, re-alias — and returns the element.
func extendEdge(g *Graph, log *trace.Log, key trace.EdgeKey, newFrags []trace.Fragment) *Edge {
	log.AppendFrom(trace.LogOf(newFrags), 0)
	g.AliasEdge(key, log.View())
	return g.Edge(key)
}

func TestExtendPreservesEpoch(t *testing.T) {
	g := New()
	key := trace.EdgeKey{From: 1, To: 2}
	log := trace.NewLog(nil)
	// Extend on a missing element behaves like a run of Adds.
	e := extendEdge(g, log, key, []trace.Fragment{
		fragComp(0, 1, 2, 0, 10), fragComp(1, 1, 2, 5, 10),
	})
	if e == nil || e.Gen != (Gen{Epoch: 0, Count: 2}) {
		t.Fatalf("extend-create gen: %+v", e)
	}
	if e.MinStart != 0 || e.MaxEnd != 15 {
		t.Fatalf("extend-create bounds: [%d,%d)", e.MinStart, e.MaxEnd)
	}
	// Repeated extends keep the epoch however far the log grows, and
	// bounds/counts track every append.
	for i := 0; i < 100; i++ {
		extendEdge(g, log, key, []trace.Fragment{fragComp(0, 1, 2, int64(20+i*10), 10)})
	}
	if e.Gen != (Gen{Epoch: 0, Count: 102}) {
		t.Fatalf("extend gen after growth: %+v", e.Gen)
	}
	if e.MaxEnd != 20+99*10+10 {
		t.Fatalf("extend bounds after growth: %d", e.MaxEnd)
	}
	if g.NumFragments() != 102 {
		t.Fatalf("fragment accounting: %d", g.NumFragments())
	}
	// Empty extends are no-ops (no watermark movement).
	extendEdge(g, log, key, nil)
	if e.Gen != (Gen{Epoch: 0, Count: 102}) {
		t.Fatal("empty extend moved the watermark")
	}

	vlog := trace.NewLog(nil)
	for _, f := range []trace.Fragment{fragComm(0, 7, 0, 5), fragComm(1, 7, 10, 5)} {
		f := f
		vlog.Append(&f)
		g.AliasVertex(7, trace.Comm, vlog.View())
	}
	v := g.Vertex(7)
	if v == nil || v.Gen != (Gen{Epoch: 0, Count: 2}) || v.Kind != trace.Comm {
		t.Fatalf("vertex extend: %+v", v)
	}
	if v.MinStart != 0 || v.MaxEnd != 15 {
		t.Fatalf("vertex extend bounds: [%d,%d)", v.MinStart, v.MaxEnd)
	}
}

func TestExtendMatchesAdd(t *testing.T) {
	// A graph whose edge aliases a log grown by AppendFrom batches must
	// be indistinguishable — gen, bounds, fragments — from one grown by
	// per-fragment Add.
	a, b := New(), New()
	batch := []trace.Fragment{
		fragComp(0, 1, 2, 0, 10), fragComp(1, 1, 2, 3, 4), fragComp(0, 1, 2, 20, 1),
	}
	for _, f := range batch {
		a.AddBatch([]trace.Fragment{f})
	}
	key := trace.EdgeKey{From: 1, To: 2}
	be := extendEdge(b, trace.NewLog(nil), key, batch)
	ae := a.Edge(key)
	if ae.Gen != be.Gen || ae.MinStart != be.MinStart || ae.MaxEnd != be.MaxEnd || ae.Log().Len() != be.Log().Len() {
		t.Fatalf("extend != add: %+v vs %+v", ae, be)
	}
	af, bf := ae.Log().Slice(), be.Log().Slice()
	for i := range batch {
		if af[i] != batch[i] || bf[i] != batch[i] {
			t.Fatalf("row %d: add %+v, extend %+v, want %+v", i, af[i], bf[i], batch[i])
		}
	}
}

// TestPutLogKeepsEpochAcrossRealloc: an element aliasing a growing log
// keeps its epoch across any number of chunk boundaries — there is no
// reallocation left to defeat the proof — and bounds and counts follow
// every step. Only pointing it at an earlier state of the log (a
// shrink) rebases.
func TestPutLogKeepsEpochAcrossRealloc(t *testing.T) {
	g := New()
	key := trace.EdgeKey{From: 1, To: 2}
	log := trace.NewLog(nil)
	first := fragComp(0, 1, 2, 0, 10)
	log.Append(&first)
	early := log.View()
	g.AliasEdge(key, early)
	e := g.Edge(key)
	epoch := e.Gen.Epoch
	n := 1
	for _, step := range []int{1, trace.LogChunkRows - 3, 2, trace.LogChunkRows, 2*trace.LogChunkRows + 7} {
		for i := 0; i < step; i++ {
			f := fragComp(n%5, 1, 2, int64(n*10), 10)
			log.Append(&f)
			n++
		}
		g.AliasEdge(key, log.View())
		if e.Gen != (Gen{Epoch: epoch, Count: uint64(n)}) {
			t.Fatalf("alias rebased after %d rows: %+v", n, e.Gen)
		}
		if e.MinStart != 0 || e.MaxEnd != int64(n*10) || g.NumFragments() != n {
			t.Fatalf("after %d rows: bounds [%d,%d), %d fragments", n, e.MinStart, e.MaxEnd, g.NumFragments())
		}
	}
	if n <= 4*trace.LogChunkRows {
		t.Fatalf("only %d rows: the log must cross several chunk boundaries", n)
	}
	// A shrink is not an append-only advance: defensive rebase.
	g.AliasEdge(key, early)
	if e.Gen.Epoch == epoch || e.Gen.Count != 1 || e.MaxEnd != 10 || g.NumFragments() != 1 {
		t.Fatalf("alias kept the epoch across a shrink: %+v [%d,%d)", e.Gen, e.MinStart, e.MaxEnd)
	}

	vlog := trace.NewLog(nil)
	io := trace.Fragment{Rank: 0, Kind: trace.IO, State: 9, Start: 0, Elapsed: 5}
	vlog.Append(&io)
	g.AliasVertex(9, trace.IO, vlog.View())
	v := g.Vertex(9)
	vepoch := v.Gen.Epoch
	io = trace.Fragment{Rank: 1, Kind: trace.IO, State: 9, Start: 5, Elapsed: 5}
	vlog.Append(&io)
	g.AliasVertex(9, trace.IO, vlog.View())
	if v.Gen != (Gen{Epoch: vepoch, Count: 2}) {
		t.Fatalf("vertex alias rebased: %+v", v.Gen)
	}
}
