package stg

import (
	"fmt"
	"slices"
	"strings"
)

// DOT renders the graph in Graphviz dot syntax — the visualization of
// the paper's Figure 4 (the context-free STG of CG's nested loop).
// Vertices are labeled with their call-site names and fragment counts;
// edges with their computation-fragment counts and mean times.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph stg {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")

	id := func(key uint64) string { return fmt.Sprintf("s%x", key) }

	// Entry vertex appears when any edge leaves it.
	keys := make(map[uint64]bool)
	for _, e := range g.Edges() {
		keys[e.Key.From] = true
		keys[e.Key.To] = true
	}
	for _, v := range g.Vertices() {
		keys[v.Key] = true
	}
	sorted := make([]uint64, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	slices.Sort(sorted)

	for _, k := range sorted {
		label := g.Name(k)
		if v := g.Vertex(k); v != nil {
			label = fmt.Sprintf("%s\\n%d %s fragments", label, v.Gen.Count, v.Kind)
		}
		fmt.Fprintf(&b, "  %s [label=\"%s\"];\n", id(k), escapeDOT(label))
	}
	for _, e := range g.Edges() {
		log := e.Log()
		var total int64
		for i := 0; i < log.Len(); i++ {
			_, _, elapsed := log.Span(i)
			total += elapsed
		}
		mean := float64(0)
		if n := log.Len(); n > 0 {
			mean = float64(total) / float64(n) / 1e6
		}
		fmt.Fprintf(&b, "  %s -> %s [label=\"%d x %.2fms\"];\n",
			id(e.Key.From), id(e.Key.To), log.Len(), mean)
	}
	b.WriteString("}\n")
	return b.String()
}

func escapeDOT(s string) string {
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}
