package collector

import (
	"slices"

	"vapro/internal/diagnose"
	"vapro/internal/trace"
)

// Streaming §4.2 quantification: every plane's analyzer is given the
// monitor's factor set (detect.Analyzer.SetOLSFactors), so each Fixed
// cluster of an edge keeps its regression moments
// (diagnose.ClusterMoments) in the sample store, folded in the same
// loops that fold its normalization state — every pass over a plane's
// view, monitor ticks and WindowResults alike, advances them. An edge
// key names no rank, so over several planes one edge has a population,
// a clustering and moments per plane. When DiagnoseEvent later needs the
// OLS quantification, the moments are already pooled — no walk over the
// resident fragment populations — so the diagnosis cost of a
// steady-state tick stops scaling with how much data is resident. The
// batch QuantifyOLS is its test oracle: the equivalence fuzz in
// internal/diagnose pins the moment form to it, and
// TestMonitorStreamingOLSEquivalence the monitor's whole diagnosis.

// olsFactorsFor returns the factor set the monitor accumulates moments
// for: the OS factors reachable within maxStage, matching what the
// progressive controller will feed the quantifier.
func olsFactorsFor(maxStage int) []diagnose.Factor {
	var out []diagnose.Factor
	for _, f := range diagnose.OSFactors() {
		if f.Stage() <= maxStage {
			out = append(out, f)
		}
	}
	return out
}

// streamQuantifier returns a diagnose quantifier backed by the warm
// moments of the given elements, or nil when the streaming plane cannot
// serve this diagnosis (a vertex, whose clusters keep no moments, or an
// edge whose prep is not at its generation) — the caller then leaves
// the default batch QuantifyOLS in place. Caller holds m.mu and the
// planes' amu; elems must come from the planes' freshly refreshed view
// graphs so their generations describe the populations the diagnosis
// will walk.
func (m *Monitor) streamQuantifier(elems []planeElem) func([][]trace.Fragment, []diagnose.Factor) *diagnose.OLSQuant {
	var streams []*diagnose.ClusterMoments
	for _, pe := range elems {
		if !pe.key.IsEdge {
			return nil
		}
		ms, ok := m.Pool.planes[pe.plane].an.ClusterMoments(pe.key, pe.gen, m.olsFactors)
		if !ok {
			return nil
		}
		streams = append(streams, ms...)
	}
	want := m.olsFactors
	return func(clusters [][]trace.Fragment, kept []diagnose.Factor) *diagnose.OLSQuant {
		if !slices.Equal(kept, want) {
			// The diagnosis runs at a different stage depth than the
			// moments were accumulated for: fall back to the batch fit.
			return diagnose.QuantifyOLS(clusters, kept)
		}
		return diagnose.QuantifyMoments(streams, kept)
	}
}
