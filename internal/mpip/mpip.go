// Package mpip models the mpiP-style lightweight MPI profiler the paper
// contrasts with in §6.4: it aggregates each rank's total computation
// and communication time. The point of the comparison is that this
// summary is misleading under dependence-propagated noise — victims of
// a computation slowdown show up as *communication* increases on every
// other rank (which waits for them), while the actual computation
// change is too small to notice.
package mpip

import (
	"fmt"
	"strings"

	"vapro/internal/stg"
	"vapro/internal/trace"
)

// RankProfile is one rank's time summary.
type RankProfile struct {
	Rank   int
	CompNS int64
	CommNS int64
	IONS   int64
}

// Total returns the rank's accounted time.
func (r RankProfile) Total() int64 { return r.CompNS + r.CommNS + r.IONS }

// Profile summarizes an STG into per-rank computation/communication/IO
// time, exactly what a PMPI profiler derives from wrapper timers.
func Profile(g *stg.Graph, ranks int) []RankProfile {
	out := make([]RankProfile, ranks)
	for i := range out {
		out[i].Rank = i
	}
	add := func(log trace.LogView) {
		for i := 0; i < log.Len(); i++ {
			rank, _, elapsed := log.Span(i)
			if rank < 0 || rank >= ranks {
				continue
			}
			p := &out[rank]
			switch log.Kind(i) {
			case trace.Comp, trace.Probe:
				p.CompNS += elapsed
			case trace.IO:
				p.IONS += elapsed
			default:
				p.CommNS += elapsed
			}
		}
	}
	for _, e := range g.Edges() {
		add(e.Log())
	}
	for _, v := range g.Vertices() {
		add(v.Log())
	}
	return out
}

// Summary aggregates profiles.
type Summary struct {
	MeanCompNS, MeanCommNS, MeanIONS float64
	MaxCommRank                      int
	MaxCommNS                        int64
}

// Summarize reduces the per-rank profiles.
func Summarize(ps []RankProfile) Summary {
	var s Summary
	if len(ps) == 0 {
		return s
	}
	for _, p := range ps {
		s.MeanCompNS += float64(p.CompNS)
		s.MeanCommNS += float64(p.CommNS)
		s.MeanIONS += float64(p.IONS)
		if p.CommNS > s.MaxCommNS {
			s.MaxCommNS, s.MaxCommRank = p.CommNS, p.Rank
		}
	}
	n := float64(len(ps))
	s.MeanCompNS /= n
	s.MeanCommNS /= n
	s.MeanIONS /= n
	return s
}

// Render prints a compact per-rank stacked summary (downsampled).
func Render(ps []RankProfile, maxRows int) string {
	if maxRows <= 0 {
		maxRows = 16
	}
	step := (len(ps) + maxRows - 1) / maxRows
	if step < 1 {
		step = 1
	}
	var b strings.Builder
	b.WriteString("rank      comp(s)   comm(s)     io(s)\n")
	for i := 0; i < len(ps); i += step {
		p := ps[i]
		fmt.Fprintf(&b, "%-6d %9.3f %9.3f %9.3f\n",
			p.Rank, float64(p.CompNS)/1e9, float64(p.CommNS)/1e9, float64(p.IONS)/1e9)
	}
	return b.String()
}
