package collector

import (
	"sync"

	"vapro/internal/cluster"
	"vapro/internal/diagnose"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// Streaming §4.2 quantification: the monitor keeps each edge cluster's
// regression moments (diagnose.ClusterMoments) warm as the cluster
// population grows, driven by the pool analyzer's cluster-delta hook
// (so every pass over the pool's view — monitor ticks and WindowResults
// alike — advances them).
// When DiagnoseEvent later needs the OLS quantification, the moments
// are already pooled — no walk over the resident fragment populations —
// so the diagnosis cost of a steady-state tick stops scaling with how
// much data is resident. The batch QuantifyOLS is its test oracle: the
// equivalence fuzz in internal/diagnose pins the moment form to it, and
// TestMonitorStreamingOLSEquivalence the monitor's whole diagnosis.

// elemMoments is one edge's warm regression state: a moment accumulator
// per cluster of the edge's last-seen clustering, parallel to
// Result.Clusters. mu guards the fields below it and is the last lock
// in the order m.mu → p.amu → olsMu → elemMoments.mu (olsMu is released
// before mu is taken; it only guards the olsStreams map).
type elemMoments struct {
	mu      sync.Mutex
	gen     stg.Gen
	streams []*diagnose.ClusterMoments
	fixed   []bool
}

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

func sameFactors(a, b []diagnose.Factor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildClusterMoments folds members into fresh moments. Members are read
// with ReadCounters: Add only looks at Elapsed and Counters.
func buildClusterMoments(factors []diagnose.Factor, frags trace.LogView, members []int32) *diagnose.ClusterMoments {
	cm := diagnose.NewClusterMoments(factors)
	var f trace.Fragment
	for _, idx := range members {
		frags.ReadCounters(int(idx), &f)
		cm.Add(&f)
	}
	return cm
}

// observeClustering is the analyzer hook: fired for every element
// clustering a window analysis consults, concurrently from the pass's
// workers. It advances the edge's warm moments by the clustering Delta
// — rank-1 Adds for appended members of grown clusters, carried
// pointers for untouched clusters — and rebuilds from scratch when the
// delta does not connect to the recorded generation.
func (m *Monitor) observeClustering(key cluster.Key, gen stg.Gen, frags trace.LogView, res cluster.Result, d cluster.Delta) {
	if !key.IsEdge {
		return
	}
	// olsMu covers only the map: the advance below runs under the
	// element's own lock, so the pass's workers advance distinct edges
	// concurrently.
	m.olsMu.Lock()
	em := m.olsStreams[key]
	if em == nil {
		em = &elemMoments{}
		m.olsStreams[key] = em
	}
	m.olsMu.Unlock()
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.gen == gen && em.streams != nil {
		return // unchanged element (or a repeat consult of this generation)
	}
	if !d.Full && em.gen == d.From && len(em.streams) > 0 {
		if m.advanceMoments(em, frags, res, d) {
			em.gen = gen
			return
		}
	}
	// No usable relationship to the recorded state: rebuild every
	// cluster's moments from its membership.
	em.streams = make([]*diagnose.ClusterMoments, len(res.Clusters))
	em.fixed = make([]bool, len(res.Clusters))
	for i := range res.Clusters {
		em.streams[i] = buildClusterMoments(m.olsFactors, frags, res.Clusters[i].Members)
		em.fixed[i] = res.Clusters[i].Fixed
	}
	em.gen = gen
	m.pool.met.OLSRefactors.Add(uint64(len(res.Clusters)))
}

// advanceMoments patches em's streams by the delta. Returns false if an
// index falls outside the recorded state (the caller then rebuilds).
func (m *Monitor) advanceMoments(em *elemMoments, frags trace.LogView, res cluster.Result, d cluster.Delta) bool {
	old := em.streams
	if d.Prefix > len(old) || d.TailOld > len(old) {
		return false
	}
	streams := make([]*diagnose.ClusterMoments, len(res.Clusters))
	fixed := make([]bool, len(res.Clusters))
	var adds, rebuilt uint64
	var f trace.Fragment
	for i := range res.Clusters {
		switch {
		case i < d.Prefix:
			streams[i] = old[i]
		case i >= d.TailNew:
			oi := i - d.TailNew + d.TailOld
			if oi < 0 || oi >= len(old) {
				return false
			}
			streams[i] = old[oi]
		default:
			if i-d.Prefix >= len(d.Dirty) {
				return false
			}
			dr := d.Dirty[i-d.Prefix]
			members := res.Clusters[i].Members
			if dr.OldIndex >= 0 && dr.OldIndex < len(old) {
				cm := old[dr.OldIndex]
				for _, pos := range dr.AddedPos {
					if int(pos) >= len(members) {
						return false
					}
					frags.ReadCounters(int(members[pos]), &f)
					cm.Add(&f)
				}
				adds += uint64(len(dr.AddedPos))
				streams[i] = cm
			} else {
				streams[i] = buildClusterMoments(m.olsFactors, frags, members)
				rebuilt++
			}
		}
		fixed[i] = res.Clusters[i].Fixed
	}
	em.streams, em.fixed = streams, fixed
	if adds > 0 {
		m.pool.met.OLSRank1Updates.Add(adds)
	}
	if rebuilt > 0 {
		m.pool.met.OLSRefactors.Add(rebuilt)
	}
	return true
}

// streamQuantifier returns a diagnose quantifier backed by the warm
// moments of the given edges, or nil when the streaming plane cannot
// serve this diagnosis (a stream missing or at a stale generation) — the
// caller then leaves the default batch QuantifyOLS in place. Caller
// holds m.mu and the pool's amu; edges must come from the pool's freshly
// refreshed view graph so their Gen fields describe the populations the
// diagnosis will walk.
func (m *Monitor) streamQuantifier(edges []*stg.Edge) func([][]trace.Fragment, []diagnose.Factor) *diagnose.OLSQuant {
	var streams []*diagnose.ClusterMoments
	for _, e := range edges {
		m.olsMu.Lock()
		em := m.olsStreams[cluster.EdgeKey(e.Key)]
		m.olsMu.Unlock()
		if em == nil {
			return nil
		}
		em.mu.Lock()
		warm := em.gen == e.Gen && em.streams != nil
		if warm {
			for ci, cm := range em.streams {
				if em.fixed[ci] {
					streams = append(streams, cm)
				}
			}
		}
		em.mu.Unlock()
		if !warm {
			return nil
		}
	}
	want := m.olsFactors
	return func(clusters [][]trace.Fragment, kept []diagnose.Factor) *diagnose.OLSQuant {
		if !sameFactors(kept, want) {
			// The diagnosis runs at a different stage depth than the
			// moments were accumulated for: fall back to the batch fit.
			return diagnose.QuantifyOLS(clusters, kept)
		}
		return diagnose.QuantifyMoments(streams, kept)
	}
}
