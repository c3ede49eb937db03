package collector

import "vapro/internal/diagnose"

// Streaming §4.2 quantification: every plane's analyzer is given the
// monitor's factor set (detect.Analyzer.SetOLSFactors), so each Fixed
// cluster of an edge keeps its regression moments
// (diagnose.ClusterMoments) in the sample store, folded in the same
// loops that fold its normalization state — every pass over a plane's
// view, monitor ticks and WindowResults alike, advances them. An edge
// key names no rank, so over several planes one edge has a population,
// a clustering and moments per plane. DiagnoseEvent hands the moments
// of every edge at its generation to the diagnosis, which solves the
// one §4.2 quantifier (diagnose.QuantifyMoments) from them and folds
// only the other clusters (vertices, edges grown since their last
// pass) from their rows, so the diagnosis cost of a steady-state tick
// stops scaling with how much data is resident.
// TestMonitorStreamingOLSEquivalence pins the monitor's diagnosis to
// the one folded from the same clusters' rows.

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
