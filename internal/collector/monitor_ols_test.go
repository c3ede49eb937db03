package collector

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/diagnose"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

func olsClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// feedOLSMonitor streams a deterministic 4-rank run with OS-noise
// counters planted on every fragment (so the §4.2 quantification has
// signal) and a 2x slowdown on rank 2 during [40ms, 70ms) (so windows
// produce events).
func feedOLSMonitor(m *Monitor, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for rank := 0; rank < 4; rank++ {
		t := int64(0)
		var batch []trace.Fragment
		for t < 100_000_000 {
			susp := rng.Int63n(50_000)
			soft := uint64(rng.Intn(30))
			hard := uint64(rng.Intn(5))
			vol := uint64(rng.Intn(20))
			invol := uint64(rng.Intn(8))
			sig := uint64(rng.Intn(3))
			el := int64(1_000_000) + susp + int64(soft)*1_000 + int64(hard)*20_000 +
				int64(vol)*800 + int64(invol)*4_000 + rng.Int63n(10_000)
			if rank == 2 && t >= 40_000_000 && t < 70_000_000 {
				el *= 2
			}
			batch = append(batch, trace.Fragment{
				Rank: rank, Kind: trace.Comp, From: 1, State: 2,
				Start: t, Elapsed: el,
				Counters: trace.CountersView{
					TotIns: 1_000_000, Cycles: 500_000,
					SuspensionNS: susp, SoftPF: soft, HardPF: hard,
					VolCS: vol, InvolCS: invol, Signals: sig,
				},
			})
			t += el
			if len(batch) == 8 {
				m.Consume(rank, batch)
				batch = nil
			}
		}
		m.Consume(rank, batch)
	}
	m.Flush()
}

// eventEdges replicates DiagnoseEvent's edge and cluster collection so
// the tests can verify the streaming quantifier actually serves the
// event (rather than silently falling back to the batch path) and run
// the batch oracle over the same populations.
func eventEdges(m *Monitor, ev *Event) ([]*stg.Edge, [][]trace.Fragment) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pool.drain()
	m.pool.amu.Lock()
	defer m.pool.amu.Unlock()
	g := m.pool.refreshView()
	var edges []*stg.Edge
	var clusters [][]trace.Fragment
	seen := map[trace.EdgeKey]bool{}
	for _, s := range ev.Regions[0].Samples {
		if !s.ClusterRef.IsEdge || seen[s.ClusterRef.Edge] {
			continue
		}
		seen[s.ClusterRef.Edge] = true
		e := g.Edge(s.ClusterRef.Edge)
		if e == nil {
			continue
		}
		edges = append(edges, e)
		cl := m.pool.an.Cache().Run(cluster.EdgeKey(e.Key), e.Gen, e.Log(), m.opt.Detect.Cluster)
		for ci := range cl.Clusters {
			if cl.Clusters[ci].Fixed {
				clusters = append(clusters, e.Log().Pick(cl.Clusters[ci].Members))
			}
		}
	}
	return edges, clusters
}

// TestMonitorStreamingOLSEquivalence pins the streaming §4.2 plane to
// its oracle: the monitor's DiagnoseEvent, quantifying from warm
// moments, must produce the formula-based diagnosis and — within
// floating-point reassociation — the statistical quantification that the
// default batch QuantifyOLS computes over the same cluster populations.
// MaxStage 2 keeps the factor set full-rank (the stage-3 leaves are
// exact summands of their parents, where drop order is rounding-
// dependent by nature — see the diagnose equivalence fuzz).
func TestMonitorStreamingOLSEquivalence(t *testing.T) {
	opt := monOpts(4)
	opt.MaxStage = 2
	m := NewMonitor(NewPool(4, DefaultOptions()), opt)
	feedOLSMonitor(m, 777)
	events := m.Drain()
	if len(events) == 0 {
		t.Fatal("monitor produced no events")
	}
	dopt := diagnose.DefaultOptions()
	dopt.MaxStage = 2
	repS := m.DiagnoseEvent(&events[0], dopt)
	if repS == nil {
		t.Fatal("no diagnosis")
	}
	edges, clusters := eventEdges(m, &events[0])
	repB := diagnose.New(dopt).Run(diagnose.SliceSource(clusters))

	// The monitor must actually have served the event from warm
	// moments, and its counters must show the plane at work.
	if q := m.streamQuantifier(edges); q == nil {
		t.Fatal("streaming quantifier unavailable for the diagnosed event")
	}
	if m.pool.met.OLSRank1Updates.Load() == 0 {
		t.Fatal("streaming monitor performed no rank-1 moment updates")
	}
	if m.pool.met.OLSRefactors.Load() == 0 {
		t.Fatal("streaming monitor recorded no initial moment builds")
	}

	// Formula-based diagnosis is identical; the OLS quantification
	// agrees within reassociation tolerance.
	if repS.AbnormalFrags != repB.AbnormalFrags || repS.NormalFrags != repB.NormalFrags ||
		repS.AnalyzedNS != repB.AnalyzedNS || repS.TotalSlowdownNS != repB.TotalSlowdownNS {
		t.Fatalf("formula diagnosis differs: %+v vs %+v", repS, repB)
	}
	qs, qb := repS.OLS, repB.OLS
	if (qs == nil) != (qb == nil) {
		t.Fatalf("OLS presence differs: %v vs %v", qs, qb)
	}
	if qs == nil {
		t.Fatal("diagnosis produced no OLS quantification")
	}
	if len(qs.Dropped) != len(qb.Dropped) {
		t.Fatalf("dropped sets differ: %v vs %v", qs.Dropped, qb.Dropped)
	}
	for i := range qs.Dropped {
		if qs.Dropped[i] != qb.Dropped[i] {
			t.Fatalf("dropped[%d]: %v vs %v", i, qs.Dropped[i], qb.Dropped[i])
		}
	}
	if !olsClose(qs.FGStat, qb.FGStat, 1e-6) || !olsClose(qs.FGPValue, qb.FGPValue, 1e-6) ||
		!olsClose(qs.R2, qb.R2, 1e-6) {
		t.Fatalf("fit differs: FG (%v,%v) R2 %v vs FG (%v,%v) R2 %v",
			qs.FGStat, qs.FGPValue, qs.R2, qb.FGStat, qb.FGPValue, qb.R2)
	}
	if len(qs.PValue) != len(qb.PValue) || len(qs.TimePerUnit) != len(qb.TimePerUnit) {
		t.Fatalf("factor sets differ: %v vs %v", qs, qb)
	}
	for f, wp := range qb.PValue {
		gp, ok := qs.PValue[f]
		if !ok || !olsClose(gp, wp, 1e-6) {
			t.Fatalf("PValue[%v]: %v (ok=%v) vs %v", f, gp, ok, wp)
		}
	}
	for f, wv := range qb.TimePerUnit {
		gv, ok := qs.TimePerUnit[f]
		if !ok || !olsClose(gv, wv, 1e-6) {
			t.Fatalf("TimePerUnit[%v]: %v (ok=%v) vs %v", f, gv, ok, wv)
		}
	}

	// At least one factor must have been quantified — otherwise the
	// equivalence above is vacuous.
	if len(qs.TimePerUnit) == 0 {
		t.Fatal("no factor quantified; the workload should expose OS-noise signal")
	}
}

// TestMonitorStreamingOLSStaleFallback: an edge that grew after the
// last window analysis has moments at an older generation — the
// streaming plane must refuse to serve it rather than quantify stale
// data.
func TestMonitorStreamingOLSStaleFallback(t *testing.T) {
	pool := NewPool(4, DefaultOptions())
	opt := monOpts(4)
	opt.MaxStage = 2
	m := NewMonitor(pool, opt)
	feedOLSMonitor(m, 778)
	events := m.Drain()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	edges, _ := eventEdges(m, &events[0])
	if q := m.streamQuantifier(edges); q == nil {
		t.Fatal("quantifier should be warm after Flush")
	}
	// Grow the edge past the analyzed generation without closing a new
	// window: only rank 0 reports, so no window completes and no
	// analysis refreshes the moments.
	m.Consume(0, []trace.Fragment{{
		Rank: 0, Kind: trace.Comp, From: 1, State: 2,
		Start: 200_000_000, Elapsed: 1_000_000,
		Counters: trace.CountersView{TotIns: 1_000_000},
	}})
	edges, _ = eventEdges(m, &events[0])
	if q := m.streamQuantifier(edges); q != nil {
		t.Fatal("stale moments served: generation check failed")
	}
	// DiagnoseEvent still works via the batch fallback.
	dopt := diagnose.DefaultOptions()
	dopt.MaxStage = 2
	if rep := m.DiagnoseEvent(&events[0], dopt); rep == nil || rep.OLS == nil {
		t.Fatal("batch fallback did not produce a diagnosis")
	}
}

// TestMonitorStreamingOLSParallelWorkers drives the cluster-delta hook
// from four stage-1 workers over twelve edges (each advancing under its
// own elemMoments lock) and requires every edge's moments to equal, bit
// for bit, those of the same stream analyzed by one worker: an edge's
// advances are ordered by its own generations, not by which worker ran
// them. Run under -race it also pins the locking itself. Two streams:
// OS noise on every fragment (the dense fold) and idle OS counters (the
// sparse fold: only the intercept and elapsed are nonzero).
func TestMonitorStreamingOLSParallelWorkers(t *testing.T) {
	for _, idle := range []bool{false, true} {
		t.Run(fmt.Sprintf("idle=%v", idle), func(t *testing.T) { testOLSParallelWorkers(t, idle) })
	}
}

func testOLSParallelWorkers(t *testing.T, idle bool) {
	const ranks, edges = 4, 12
	run := func(parallelism int) *Monitor {
		opt := monOpts(ranks)
		opt.Detect.Parallelism = parallelism
		m := NewMonitor(NewPool(ranks, DefaultOptions()), opt)
		rng := rand.New(rand.NewSource(99))
		clock := make([]int64, ranks)
		for round := 0; round < 12; round++ {
			for rank := 0; rank < ranks; rank++ {
				batch := make([]trace.Fragment, 0, 48)
				for i := 0; i < 48; i++ {
					e := uint64(rng.Intn(edges))
					susp := rng.Int63n(50_000)
					soft := uint64(rng.Intn(30))
					vol := uint64(rng.Intn(20))
					if idle {
						susp, soft, vol = 0, 0, 0
					}
					el := 1_000_000 + susp + int64(soft)*1_000 + rng.Int63n(10_000)
					batch = append(batch, trace.Fragment{
						Rank: rank, Kind: trace.Comp, From: e + 1, State: e + 2,
						Start: clock[rank], Elapsed: el,
						Counters: trace.CountersView{
							TotIns: 1_000_000 + uint64(rng.Intn(3))*400_000, Cycles: 500_000,
							SuspensionNS: susp, SoftPF: soft, VolCS: vol,
						},
					})
					clock[rank] += el
				}
				m.Consume(rank, batch)
			}
		}
		m.Flush()
		return m
	}
	seq, par := run(1), run(4)
	if len(seq.olsStreams) != edges || len(par.olsStreams) != edges {
		t.Fatalf("moments kept for %d / %d edges, want %d", len(seq.olsStreams), len(par.olsStreams), edges)
	}
	if par.pool.met.OLSRank1Updates.Load() == 0 {
		t.Fatal("no rank-1 updates: the delta path never ran")
	}
	for key, want := range seq.olsStreams {
		got := par.olsStreams[key]
		if got == nil || got.gen != want.gen || !reflect.DeepEqual(got.fixed, want.fixed) ||
			!reflect.DeepEqual(got.streams, want.streams) {
			t.Fatalf("edge %v: moments differ between 1 and 4 workers", key.Edge)
		}
	}
}
