// Package mpip models the mpiP-style lightweight MPI profiler the paper
// contrasts with in §6.4: it aggregates each rank's total computation
// and communication time. The point of the comparison is that this
// summary is misleading under dependence-propagated noise — victims of
// a computation slowdown show up as *communication* increases on every
// other rank (which waits for them), while the actual computation
// change is too small to notice.
package mpip

import (
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
