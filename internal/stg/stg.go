// Package stg implements the State Transition Graph of §3.2: vertices
// are program running states (call-sites or call-paths), edges are the
// transitions between them (the computation snippets separating two
// external invocations). Fragments attach to vertices (communication,
// IO, sync, probe invocations) and to edges (computation), which is the
// organization the fixed-workload clustering of §3.4 runs over.
package stg

import (
	"cmp"
	"fmt"
	"slices"

	"vapro/internal/trace"
)

// Gen is an element's generation watermark, the handle consumers use to
// ask "what arrived since I last looked" instead of "did anything
// change". Each element's fragments are an append log (trace.Log):
// Count is the log length (one generation per appended fragment) and
// Epoch identifies the log itself. Epoch moves only when the element is
// pointed at a different log (see AliasEdge) — after an epoch bump,
// positions from older generations are meaningless and consumers must
// re-read everything. The zero Gen is "before anything", valid against
// any element.
//
// Downstream incremental consumers (cluster.Cache and the detect preps)
// key their memoized per-element state on Gen and use Count deltas to
// process only the newly appended suffix.
type Gen struct {
	Epoch uint64
	Count uint64
}

// Before reports whether g is an earlier watermark of the same append
// log as cur — i.e. the fragments at positions [g.Count, cur.Count) are
// exactly what arrived between the two observations.
func (g Gen) Before(cur Gen) bool {
	return g.Epoch == cur.Epoch && g.Count <= cur.Count
}

// Element is what a Vertex and an Edge have in common: a fragment log,
// its generation watermark and its time envelope.
type Element struct {
	// Gen is the generation watermark of the fragment log (see Gen).
	Gen Gen
	// MinStart/MaxEnd bound the time spans of the attached fragments
	// ([MinStart, MaxEnd)), maintained on append so window overlap
	// checks can reject whole elements without scanning fragments.
	MinStart, MaxEnd int64

	// The log is either the element's own (grown by Graph.Add) or a
	// view of someone else's (installed by Graph.AliasEdge/AliasVertex).
	own   *trace.Log
	alias trace.LogView
}

// Log returns the element's fragments as an immutable snapshot: row i
// is the i-th fragment attached, Len() equals Gen.Count.
func (el *Element) Log() trace.LogView {
	if el.own != nil {
		return el.own.View()
	}
	return el.alias
}

// Since returns the row at which the fragments appended after
// watermark g begin — rows [from, Log().Len()) are exactly what
// arrived since — or ok=false when g is not an earlier watermark of
// this log (the element was rebased and the caller must re-read it).
func (el *Element) Since(g Gen) (from int, ok bool) {
	if !g.Before(el.Gen) {
		return 0, false
	}
	return int(g.Count), true
}

// widen grows the envelope to include [start, end); first starts it
// afresh.
func (el *Element) widen(first bool, start, end int64) {
	if first {
		el.MinStart, el.MaxEnd = start, end
		return
	}
	el.MinStart = min(el.MinStart, start)
	el.MaxEnd = max(el.MaxEnd, end)
}

// cover widens the envelope over rows [from, v.Len()) of v; from == 0
// starts it afresh.
func (el *Element) cover(v trace.LogView, from int) {
	for i := from; i < v.Len(); i++ {
		_, start, elapsed := v.Span(i)
		el.widen(i == 0, start, start+elapsed)
	}
}

// append attaches one fragment to the element's own log. An element
// that was aliasing takes a private copy first; its rows stay a prefix,
// so the epoch holds.
func (el *Element) append(f *trace.Fragment, stats *trace.LogStats) {
	if el.own == nil {
		el.own = trace.NewLog(stats)
		el.own.AppendFrom(el.alias, 0)
		el.alias = trace.LogView{}
	}
	el.widen(el.own.Len() == 0, f.Start, f.End())
	el.own.Append(f)
	el.Gen.Count++
}

// setAlias makes v the element's log and returns the change in length.
// When v extends what the element held (the same log, observed later)
// the epoch is preserved and the switch is indistinguishable from a
// run of appends; any other log rebases the element onto a new epoch
// and incremental consumers start over.
func (el *Element) setAlias(v trace.LogView) (grown int) {
	old := el.Log()
	if v.Extends(old) {
		el.cover(v, old.Len())
	} else {
		el.Gen.Epoch++
		el.MinStart, el.MaxEnd = 0, 0
		el.cover(v, 0)
	}
	el.Gen.Count = uint64(v.Len())
	el.own, el.alias = nil, v
	return v.Len() - old.Len()
}

// overlaps reports whether any fragment overlaps [start, end). The
// envelope rejects in O(1); an envelope hit does not prove a fragment
// hit (spans can straddle a gap), so the rows are scanned.
func (el *Element) overlaps(start, end int64) bool {
	v := el.Log()
	if v.Len() == 0 || el.MinStart >= end || el.MaxEnd <= start {
		return false
	}
	for i := 0; i < v.Len(); i++ {
		if _, s, e := v.Span(i); s < end && s+e > start {
			return true
		}
	}
	return false
}

// Vertex is one running state with the invocation fragments observed in
// that state.
type Vertex struct {
	Key  uint64
	Name string
	Kind trace.Kind // dominant fragment kind at this vertex
	Element
}

// Edge is one state transition with the computation fragments observed
// on it.
type Edge struct {
	Key trace.EdgeKey
	Element
}

// Graph is a State Transition Graph built from a fragment stream. The
// zero value is not ready; construct with New. Graph is not safe for
// concurrent mutation; the collector serializes Add calls per graph.
type Graph struct {
	vertices map[uint64]*Vertex
	edges    map[trace.EdgeKey]*Edge
	// vertList/edgeList hold the same elements in key order. Elements
	// are never deleted, so the order is kept by insertion.
	vertList []*Vertex
	edgeList []*Edge
	names    map[uint64]string
	frags    int
	logs     trace.LogStats
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		vertices: make(map[uint64]*Vertex),
		edges:    make(map[trace.EdgeKey]*Edge),
		names:    make(map[uint64]string),
	}
}

// SetName records a human-readable name for a state key (for reports).
func (g *Graph) SetName(key uint64, name string) { g.names = setName(g.names, key, name) }

func setName(m map[uint64]string, key uint64, name string) map[uint64]string {
	if name != "" {
		if _, ok := m[key]; !ok {
			m[key] = name
		}
	}
	return m
}

// EachName calls fn for every recorded state name (iteration order is
// unspecified).
func (g *Graph) EachName(fn func(key uint64, name string)) {
	for k, n := range g.names {
		fn(k, n)
	}
}

// Name returns the recorded name of a state key.
func (g *Graph) Name(key uint64) string {
	if n, ok := g.names[key]; ok {
		return n
	}
	if key == trace.EntryState.Key {
		return trace.EntryState.Name
	}
	return fmt.Sprintf("state(%x)", key)
}

// edge returns the edge for k, creating it in key order.
func (g *Graph) edge(k trace.EdgeKey) *Edge {
	e, ok := g.edges[k]
	if !ok {
		e = &Edge{Key: k}
		g.edges[k] = e
		i, _ := slices.BinarySearchFunc(g.edgeList, k, func(e *Edge, k trace.EdgeKey) int {
			return cmp.Or(cmp.Compare(e.Key.From, k.From), cmp.Compare(e.Key.To, k.To))
		})
		g.edgeList = slices.Insert(g.edgeList, i, e)
	}
	return e
}

// vertex returns the vertex for key, creating it (with the given kind)
// in key order.
func (g *Graph) vertex(key uint64, kind trace.Kind) *Vertex {
	v, ok := g.vertices[key]
	if !ok {
		v = &Vertex{Key: key, Kind: kind}
		g.vertices[key] = v
		i, _ := slices.BinarySearchFunc(g.vertList, key, func(v *Vertex, key uint64) int {
			return cmp.Compare(v.Key, key)
		})
		g.vertList = slices.Insert(g.vertList, i, v)
	}
	return v
}

// Add attaches one fragment: computation fragments to the edge
// (From→State), everything else to the vertex State.
func (g *Graph) Add(f trace.Fragment) { g.add(&f) }

// add is Add by pointer (AddBatch walks its batch in place).
func (g *Graph) add(f *trace.Fragment) {
	g.frags++
	if f.Kind == trace.Comp {
		g.edge(f.Edge()).append(f, &g.logs)
		return
	}
	g.vertex(f.State, f.Kind).append(f, &g.logs)
}

// AddBatch attaches a batch of fragments.
func (g *Graph) AddBatch(frags []trace.Fragment) {
	for i := range frags {
		g.add(&frags[i])
	}
}

// AliasEdge makes log the edge's fragment log, creating the edge if
// needed, without copying a row: the collector's analysis snapshot
// points its elements at the logs of the graph that holds the
// fragments. Gen.Count becomes log.Len(), the
// count an Add-built element would carry, so downstream memoization
// keys stay aligned; the epoch survives exactly when log extends what
// the edge held before (Element.setAlias).
func (g *Graph) AliasEdge(key trace.EdgeKey, log trace.LogView) {
	g.frags += g.edge(key).setAlias(log)
}

// AliasVertex is AliasEdge for a vertex. kind is (re)assigned on every
// call — an aliased element's dominant kind can change when its sources
// do.
func (g *Graph) AliasVertex(key uint64, kind trace.Kind, log trace.LogView) {
	v := g.vertex(key, kind)
	v.Kind = kind
	g.frags += v.setAlias(log)
}

// LogStats returns the allocation footprint of the fragment logs the
// graph owns (aliased logs are charged to their owners).
func (g *Graph) LogStats() *trace.LogStats { return &g.logs }

// Bounds returns the [min Start, max End) envelope over every fragment
// in the graph, or ok=false when the graph holds no fragments.
func (g *Graph) Bounds() (minStart, maxEnd int64, ok bool) {
	each := func(el *Element) {
		if el.Gen.Count == 0 {
			return
		}
		if !ok {
			minStart, maxEnd, ok = el.MinStart, el.MaxEnd, true
		} else {
			minStart = min(minStart, el.MinStart)
			maxEnd = max(maxEnd, el.MaxEnd)
		}
	}
	for _, e := range g.edgeList {
		each(&e.Element)
	}
	for _, v := range g.vertList {
		each(&v.Element)
	}
	return minStart, maxEnd, ok
}

// Overlaps reports whether any fragment overlaps [start, end).
func (g *Graph) Overlaps(start, end int64) bool {
	for _, e := range g.edgeList {
		if e.overlaps(start, end) {
			return true
		}
	}
	for _, v := range g.vertList {
		if v.overlaps(start, end) {
			return true
		}
	}
	return false
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumFragments returns the total number of attached fragments.
func (g *Graph) NumFragments() int { return g.frags }

// Vertices returns the vertices sorted by key (deterministic
// iteration). The slice is the graph's own: callers must not mutate it.
func (g *Graph) Vertices() []*Vertex { return g.vertList[:len(g.vertList):len(g.vertList)] }

// Edges returns the edges sorted by key (see Vertices).
func (g *Graph) Edges() []*Edge { return g.edgeList[:len(g.edgeList):len(g.edgeList)] }

// Vertex returns the vertex for key, or nil.
func (g *Graph) Vertex(key uint64) *Vertex { return g.vertices[key] }

// Edge returns the edge for key, or nil.
func (g *Graph) Edge(key trace.EdgeKey) *Edge { return g.edges[key] }

// Successors returns the distinct destination states reachable from the
// state `from`, sorted.
func (g *Graph) Successors(from uint64) []uint64 {
	var out []uint64
	for k := range g.edges {
		if k.From == from {
			out = append(out, k.To)
		}
	}
	slices.Sort(out)
	return out
}

// Merge folds other into g (used when concatenating per-window graphs or
// per-server shards).
func (g *Graph) Merge(other *Graph) {
	var f trace.Fragment
	addAll := func(el *Element) {
		log := el.Log()
		for i := 0; i < log.Len(); i++ {
			log.Read(i, &f)
			g.add(&f)
		}
	}
	for _, v := range other.vertList {
		addAll(&v.Element)
	}
	for _, e := range other.edgeList {
		addAll(&e.Element)
	}
	for k, n := range other.names {
		g.SetName(k, n)
	}
}

// Stats summarizes the graph for reports.
type Stats struct {
	Vertices, Edges int
	CompFragments   int
	CommFragments   int
	IOFragments     int
	OtherFragments  int
	TotalCompTime   int64 // ns
	TotalVertexTime int64 // ns
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Vertices: len(g.vertices), Edges: len(g.edges)}
	for _, e := range g.edgeList {
		log := e.Log()
		s.CompFragments += log.Len()
		for i := 0; i < log.Len(); i++ {
			_, _, elapsed := log.Span(i)
			s.TotalCompTime += elapsed
		}
	}
	for _, v := range g.vertList {
		log := v.Log()
		for i := 0; i < log.Len(); i++ {
			_, _, elapsed := log.Span(i)
			s.TotalVertexTime += elapsed
			switch log.Kind(i) {
			case trace.Comm:
				s.CommFragments++
			case trace.IO:
				s.IOFragments++
			default:
				s.OtherFragments++
			}
		}
	}
	return s
}

// String renders a compact dot-like description (small graphs only).
func (g *Graph) String() string {
	out := fmt.Sprintf("STG{%d vertices, %d edges, %d fragments}", len(g.vertices), len(g.edges), g.frags)
	return out
}
