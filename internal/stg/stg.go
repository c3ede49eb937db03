// Package stg implements the State Transition Graph of §3.2: vertices
// are program running states (call-sites or call-paths), edges are the
// transitions between them (the computation snippets separating two
// external invocations). Fragments attach to vertices (communication,
// IO, sync, probe invocations) and to edges (computation), which is the
// organization the fixed-workload clustering of §3.4 runs over.
package stg

import (
	"fmt"
	"sort"

	"vapro/internal/trace"
)

// Gen is an element's generation watermark, the handle consumers use to
// ask "what arrived since I last looked" instead of "did anything
// change". Each element's fragment slice is an append log: Count is the
// log length (one generation per appended fragment) and Epoch identifies
// the log itself. Epoch moves only when the slice is wholesale-replaced
// in a way that does not provably preserve the previous contents as a
// prefix (see PutVertex) — after an epoch bump, positions from older
// generations are meaningless and consumers must re-read everything.
// The zero Gen is "before anything", valid against any element.
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

// sinceGen is the shared implementation of Vertex.Since / Edge.Since.
func sinceGen(frags []trace.Fragment, cur, g Gen) ([]trace.Fragment, bool) {
	if !g.Before(cur) {
		return nil, false
	}
	return frags[g.Count:], true
}

// Vertex is one running state with the invocation fragments observed in
// that state.
type Vertex struct {
	Key       uint64
	Name      string
	Kind      trace.Kind // dominant fragment kind at this vertex
	Fragments []trace.Fragment
	// Gen is the generation watermark of the fragment append log (see
	// Gen). It replaces the old single monotonic Version stamp:
	// Gen.Count still moves on every append, but consumers can now
	// recover the appended suffix itself via Since.
	Gen Gen
	// MinStart/MaxEnd bound the time spans of the attached fragments
	// ([MinStart, MaxEnd)), maintained on append so window overlap
	// checks can reject whole elements without scanning fragments.
	MinStart, MaxEnd int64
}

// Since returns the fragments appended after watermark g, or ok=false
// when g belongs to a different epoch (the element was rebased and the
// caller must re-read the full slice).
func (v *Vertex) Since(g Gen) ([]trace.Fragment, bool) {
	return sinceGen(v.Fragments, v.Gen, g)
}

// Edge is one state transition with the computation fragments observed
// on it.
type Edge struct {
	Key       trace.EdgeKey
	Fragments []trace.Fragment
	// Gen is the generation watermark of the fragment append log (see
	// Vertex.Gen).
	Gen Gen
	// MinStart/MaxEnd bound the attached fragment spans (see
	// Vertex.MinStart).
	MinStart, MaxEnd int64
}

// Since returns the fragments appended after watermark g (see
// Vertex.Since).
func (e *Edge) Since(g Gen) ([]trace.Fragment, bool) {
	return sinceGen(e.Fragments, e.Gen, g)
}

// Graph is a State Transition Graph built from a fragment stream. The
// zero value is not ready; construct with New. Graph is not safe for
// concurrent mutation; the collector serializes Add calls per graph.
type Graph struct {
	vertices map[uint64]*Vertex
	edges    map[trace.EdgeKey]*Edge
	names    map[uint64]string
	frags    int
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

// growFrags returns dst ready for an append of extra fragments, having
// grown a large log with 2x headroom instead of the runtime's ~1.25x.
// A fragment log is an append-only array that lives for the whole run:
// with a growth factor g every element is copied 1/(g-1) times on
// average, so doubling cuts the steady-state realloc memmove (and the page faults of mapping each
// fresh multi-megabyte array) 4x compared to the runtime policy. The
// headroom costs at most one extra log's worth of memory, which is
// cheap because Fragment is pointer-free — the collector neither scans
// nor pre-zeroes the spare capacity. Small logs keep the runtime policy
// (their realloc traffic is negligible and most elements stay small).
func growFrags(dst []trace.Fragment, extra int) []trace.Fragment {
	const headroomMin = 32 << 10 // elements; ~3.5MB — realloc starts to hurt
	if n := len(dst) + extra; n > cap(dst) && len(dst) >= headroomMin {
		grown := make([]trace.Fragment, len(dst), 2*n)
		copy(grown, dst)
		dst = grown
	}
	return dst
}

// Add attaches one fragment: computation fragments to the edge
// (From→State), everything else to the vertex State.
func (g *Graph) Add(f trace.Fragment) { g.add(&f) }

// add is Add by pointer: the fragment is copied exactly once, into its
// log (AddBatch walks its batch in place).
func (g *Graph) add(f *trace.Fragment) {
	g.frags++
	if f.Kind == trace.Comp {
		k := f.Edge()
		e, ok := g.edges[k]
		if !ok {
			e = &Edge{Key: k, MinStart: f.Start, MaxEnd: f.End()}
			g.edges[k] = e
		}
		e.Fragments = append(growFrags(e.Fragments, 1), *f)
		e.Gen.Count++
		e.MinStart = min(e.MinStart, f.Start)
		e.MaxEnd = max(e.MaxEnd, f.End())
		return
	}
	v, ok := g.vertices[f.State]
	if !ok {
		v = &Vertex{Key: f.State, Kind: f.Kind, MinStart: f.Start, MaxEnd: f.End()}
		g.vertices[f.State] = v
	}
	v.Fragments = append(growFrags(v.Fragments, 1), *f)
	v.Gen.Count++
	v.MinStart = min(v.MinStart, f.Start)
	v.MaxEnd = max(v.MaxEnd, f.End())
}

// fragBounds computes the [min Start, max End) envelope of a fragment
// slice. Empty slices report (0, 0).
func fragBounds(frags []trace.Fragment) (minStart, maxEnd int64) {
	if len(frags) == 0 {
		return 0, 0
	}
	minStart, maxEnd = frags[0].Start, frags[0].End()
	for i := 1; i < len(frags); i++ {
		minStart = min(minStart, frags[i].Start)
		maxEnd = max(maxEnd, frags[i].End())
	}
	return minStart, maxEnd
}

// extendBounds advances an element's envelope across a replacement that
// kept the old fragments as a prefix: the old bounds still cover the
// prefix, so only the appended suffix needs scanning. A non-prefix
// replacement (oldN=0 included) falls back to the full scan. This keeps
// the per-refresh cost of the collector's merged view proportional to
// the delta — re-deriving the envelope of a million-fragment log on
// every period was the last O(population) term in the view refresh.
func extendBounds(minStart, maxEnd int64, oldN int, frags []trace.Fragment) (int64, int64) {
	if oldN == 0 {
		return fragBounds(frags)
	}
	for i := oldN; i < len(frags); i++ {
		minStart = min(minStart, frags[i].Start)
		maxEnd = max(maxEnd, frags[i].End())
	}
	return minStart, maxEnd
}

// putGen derives the next generation watermark for a wholesale
// replacement: when the old fragments are provably a prefix of the new
// slice (same backing array, which stg never mutates in place, and no
// shrink) the epoch is preserved and the replacement is
// indistinguishable from a run of appends; otherwise the log is rebased
// onto a new epoch and incremental consumers start over.
func putGen(old Gen, oldFrags, frags []trace.Fragment) Gen {
	prefix := len(frags) >= len(oldFrags) &&
		(len(oldFrags) == 0 || &frags[0] == &oldFrags[0])
	if prefix {
		return Gen{Epoch: old.Epoch, Count: uint64(len(frags))}
	}
	return Gen{Epoch: old.Epoch + 1, Count: uint64(len(frags))}
}

// PutVertex wholesale-replaces (or creates) a vertex. The incremental
// merged view in the collector uses this to refresh only the elements
// that grew since the last refresh. The resulting Gen.Count always
// equals the total append count that produced frags, so it matches the
// watermark an equivalent Add-built graph would carry and downstream
// memoization keys stay aligned; the epoch is preserved only when the
// previous fragments are provably a prefix of frags (see putGen). The
// graph takes ownership of frags; kind is (re)assigned on every call —
// a replaced element's dominant kind can change when its sources do.
func (g *Graph) PutVertex(key uint64, kind trace.Kind, frags []trace.Fragment) {
	v, ok := g.vertices[key]
	if !ok {
		v = &Vertex{Key: key}
		g.vertices[key] = v
	}
	v.Kind = kind
	g.frags += len(frags) - len(v.Fragments)
	oldEpoch, oldN := v.Gen.Epoch, len(v.Fragments)
	v.Gen = putGen(v.Gen, v.Fragments, frags)
	v.Fragments = frags
	if v.Gen.Epoch == oldEpoch {
		v.MinStart, v.MaxEnd = extendBounds(v.MinStart, v.MaxEnd, oldN, frags)
	} else {
		v.MinStart, v.MaxEnd = fragBounds(frags)
	}
}

// PutEdge wholesale-replaces (or creates) an edge (see PutVertex).
func (g *Graph) PutEdge(key trace.EdgeKey, frags []trace.Fragment) {
	e, ok := g.edges[key]
	if !ok {
		e = &Edge{Key: key}
		g.edges[key] = e
	}
	g.frags += len(frags) - len(e.Fragments)
	oldEpoch, oldN := e.Gen.Epoch, len(e.Fragments)
	e.Gen = putGen(e.Gen, e.Fragments, frags)
	e.Fragments = frags
	if e.Gen.Epoch == oldEpoch {
		e.MinStart, e.MaxEnd = extendBounds(e.MinStart, e.MaxEnd, oldN, frags)
	} else {
		e.MinStart, e.MaxEnd = fragBounds(frags)
	}
}

// putLogGen is putGen for callers that assert frags logically extends
// the previous log: the pointer-prefix proof is waived, only a shrink
// still rebases. PutVertexLog's doc explains when the assertion holds.
func putLogGen(old Gen, oldFrags, frags []trace.Fragment) Gen {
	if len(frags) >= len(oldFrags) {
		return Gen{Epoch: old.Epoch, Count: uint64(len(frags))}
	}
	return Gen{Epoch: old.Epoch + 1, Count: uint64(len(frags))}
}

// PutVertexLog replaces a vertex like PutVertex, with the caller
// asserting that the previous fragments form a logical prefix of frags
// — the slice came from the same append-only log, merely observed
// later. The epoch is preserved even when the log's backing array moved
// (an append that reallocated defeats putGen's pointer proof), so
// incremental consumers stay on the delta path across reallocations.
// A shrink still rebases defensively. The collector's merged view uses
// this for single-server elements, whose per-server logs it verifies
// by epoch and cursor accounting.
func (g *Graph) PutVertexLog(key uint64, kind trace.Kind, frags []trace.Fragment) {
	v, ok := g.vertices[key]
	if !ok {
		v = &Vertex{Key: key}
		g.vertices[key] = v
	}
	v.Kind = kind
	g.frags += len(frags) - len(v.Fragments)
	oldEpoch, oldN := v.Gen.Epoch, len(v.Fragments)
	v.Gen = putLogGen(v.Gen, v.Fragments, frags)
	v.Fragments = frags
	if v.Gen.Epoch == oldEpoch {
		// The caller asserted the old log is a logical prefix of frags,
		// so the old envelope covers it and only the suffix is new.
		v.MinStart, v.MaxEnd = extendBounds(v.MinStart, v.MaxEnd, oldN, frags)
	} else {
		v.MinStart, v.MaxEnd = fragBounds(frags)
	}
}

// PutEdgeLog replaces an edge under the same append-only-source
// assertion as PutVertexLog.
func (g *Graph) PutEdgeLog(key trace.EdgeKey, frags []trace.Fragment) {
	e, ok := g.edges[key]
	if !ok {
		e = &Edge{Key: key}
		g.edges[key] = e
	}
	g.frags += len(frags) - len(e.Fragments)
	oldEpoch, oldN := e.Gen.Epoch, len(e.Fragments)
	e.Gen = putLogGen(e.Gen, e.Fragments, frags)
	e.Fragments = frags
	if e.Gen.Epoch == oldEpoch {
		// See PutVertexLog: the asserted prefix keeps the old envelope.
		e.MinStart, e.MaxEnd = extendBounds(e.MinStart, e.MaxEnd, oldN, frags)
	} else {
		e.MinStart, e.MaxEnd = fragBounds(frags)
	}
}

// ExtendVertex appends newFrags to a vertex's own log (creating the
// vertex if needed). Unlike PutVertex the graph keeps ownership of the
// element's slice and the epoch is preserved by construction — an
// extend IS a run of appends, exactly like Add, just batched. The
// collector's delta-append merged view uses this to keep cross-server
// elements' epochs warm: each refresh appends only the per-server
// suffixes its cursors report as new.
func (g *Graph) ExtendVertex(key uint64, kind trace.Kind, newFrags []trace.Fragment) {
	if len(newFrags) == 0 {
		return
	}
	v, ok := g.vertices[key]
	if !ok {
		v = &Vertex{Key: key, Kind: kind, MinStart: newFrags[0].Start, MaxEnd: newFrags[0].End()}
		g.vertices[key] = v
	}
	g.frags += len(newFrags)
	v.Fragments = append(growFrags(v.Fragments, len(newFrags)), newFrags...)
	v.Gen.Count += uint64(len(newFrags))
	for i := range newFrags {
		v.MinStart = min(v.MinStart, newFrags[i].Start)
		v.MaxEnd = max(v.MaxEnd, newFrags[i].End())
	}
}

// ExtendEdge appends newFrags to an edge's own log (see ExtendVertex).
func (g *Graph) ExtendEdge(key trace.EdgeKey, newFrags []trace.Fragment) {
	if len(newFrags) == 0 {
		return
	}
	e, ok := g.edges[key]
	if !ok {
		e = &Edge{Key: key, MinStart: newFrags[0].Start, MaxEnd: newFrags[0].End()}
		g.edges[key] = e
	}
	g.frags += len(newFrags)
	e.Fragments = append(growFrags(e.Fragments, len(newFrags)), newFrags...)
	e.Gen.Count += uint64(len(newFrags))
	for i := range newFrags {
		e.MinStart = min(e.MinStart, newFrags[i].Start)
		e.MaxEnd = max(e.MaxEnd, newFrags[i].End())
	}
}

// Bounds returns the [min Start, max End) envelope over every fragment
// in the graph, or ok=false when the graph holds no fragments.
func (g *Graph) Bounds() (minStart, maxEnd int64, ok bool) {
	for _, e := range g.edges {
		if len(e.Fragments) == 0 {
			continue
		}
		if !ok {
			minStart, maxEnd, ok = e.MinStart, e.MaxEnd, true
		} else {
			minStart = min(minStart, e.MinStart)
			maxEnd = max(maxEnd, e.MaxEnd)
		}
	}
	for _, v := range g.vertices {
		if len(v.Fragments) == 0 {
			continue
		}
		if !ok {
			minStart, maxEnd, ok = v.MinStart, v.MaxEnd, true
		} else {
			minStart = min(minStart, v.MinStart)
			maxEnd = max(maxEnd, v.MaxEnd)
		}
	}
	return minStart, maxEnd, ok
}

// Overlaps reports whether any fragment overlaps [start, end). Element
// bounds reject non-overlapping elements in O(1); only elements whose
// envelope intersects the window are scanned, because an envelope hit
// does not prove a fragment hit (spans can straddle a gap).
func (g *Graph) Overlaps(start, end int64) bool {
	for _, e := range g.edges {
		if overlapsElement(e.Fragments, e.MinStart, e.MaxEnd, start, end) {
			return true
		}
	}
	for _, v := range g.vertices {
		if overlapsElement(v.Fragments, v.MinStart, v.MaxEnd, start, end) {
			return true
		}
	}
	return false
}

func overlapsElement(frags []trace.Fragment, minStart, maxEnd, start, end int64) bool {
	if len(frags) == 0 || minStart >= end || maxEnd <= start {
		return false
	}
	for i := range frags {
		if frags[i].Start < end && frags[i].End() > start {
			return true
		}
	}
	return false
}

// AddBatch attaches a batch of fragments.
func (g *Graph) AddBatch(frags []trace.Fragment) {
	for i := range frags {
		g.add(&frags[i])
	}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumFragments returns the total number of attached fragments.
func (g *Graph) NumFragments() int { return g.frags }

// Vertices returns the vertices sorted by key (deterministic iteration).
func (g *Graph) Vertices() []*Vertex {
	out := make([]*Vertex, 0, len(g.vertices))
	for _, v := range g.vertices {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Edges returns the edges sorted by key (deterministic iteration).
func (g *Graph) Edges() []*Edge {
	out := make([]*Edge, 0, len(g.edges))
	for _, e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.From != out[j].Key.From {
			return out[i].Key.From < out[j].Key.From
		}
		return out[i].Key.To < out[j].Key.To
	})
	return out
}

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
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge folds other into g (used when concatenating per-window graphs or
// per-server shards).
func (g *Graph) Merge(other *Graph) {
	for _, v := range other.Vertices() {
		for _, f := range v.Fragments {
			g.Add(f)
		}
	}
	for _, e := range other.Edges() {
		for _, f := range e.Fragments {
			g.Add(f)
		}
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
	for _, e := range g.edges {
		s.CompFragments += len(e.Fragments)
		for i := range e.Fragments {
			s.TotalCompTime += e.Fragments[i].Elapsed
		}
	}
	for _, v := range g.vertices {
		for i := range v.Fragments {
			s.TotalVertexTime += v.Fragments[i].Elapsed
			switch v.Fragments[i].Kind {
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
