package collector

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/diagnose"
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
	feedOSMonitor(m, func() trace.CountersView {
		return trace.CountersView{
			SuspensionNS: rng.Int63n(50_000), SoftPF: uint64(rng.Intn(30)), HardPF: uint64(rng.Intn(5)),
			VolCS: uint64(rng.Intn(20)), InvolCS: uint64(rng.Intn(8)), Signals: uint64(rng.Intn(3)),
		}
	}, func(c trace.CountersView) int64 {
		return 1_000_000 + c.SuspensionNS + int64(c.SoftPF)*1_000 + int64(c.HardPF)*20_000 +
			int64(c.VolCS)*800 + int64(c.InvolCS)*4_000 + rng.Int63n(10_000)
	})
}

// feedHierarchyMonitor streams the same shape of run with HardPF and
// VolCS always 0, so page-fault is bitwise soft-page-fault and
// context-switch is involuntary-cs: involuntary switches drive
// suspension and elapsed, soft faults drive elapsed alone.
func feedHierarchyMonitor(m *Monitor, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	feedOSMonitor(m, func() trace.CountersView {
		invol := uint64(rng.Intn(4))
		return trace.CountersView{
			SuspensionNS: 2_000*int64(invol) + rng.Int63n(500),
			SoftPF:       uint64(rng.Intn(3)), InvolCS: invol,
		}
	}, func(c trace.CountersView) int64 {
		return 1_000_000 + 40_000*int64(c.InvolCS) + 10_000*int64(c.SoftPF) + rng.Int63n(5_000)
	})
}

// feedOSMonitor streams 100 ms of one computation edge per rank over 4
// ranks, in batches of 8, with OS counters from counters and elapsed
// from elapsed, rank 2 slowed 2x during [40ms, 70ms).
func feedOSMonitor(m *Monitor, counters func() trace.CountersView, elapsed func(trace.CountersView) int64) {
	for rank := 0; rank < 4; rank++ {
		t := int64(0)
		var batch []trace.Fragment
		for t < 100_000_000 {
			c := counters()
			c.TotIns, c.Cycles = 1_000_000, 500_000
			el := elapsed(c)
			if rank == 2 && t >= 40_000_000 && t < 70_000_000 {
				el *= 2
			}
			batch = append(batch, trace.Fragment{
				Rank: rank, Kind: trace.Comp, From: 1, State: 2,
				Start: t, Elapsed: el, Counters: c,
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

// eventClusters runs DiagnoseEvent's cluster collection under its
// locks, so the tests can see which clusters the diagnosis reads warm
// moments for and run the offline diagnosis over the same populations.
func eventClusters(m *Monitor, ev *Event) ([][]trace.Fragment, []*diagnose.ClusterMoments) {
	m.mu.Lock()
	defer m.mu.Unlock()
	views := m.Pool.lockPlanes()
	defer m.Pool.unlockPlanes()
	return m.eventClusters(views, ev)
}

// olsCounters sums the streaming plane's counters over the planes.
func olsCounters(m *Monitor) (rank1, refactors uint64) {
	for _, pl := range m.Pool.planes {
		rank1 += pl.met.Detect.OLSRank1Updates.Load()
		refactors += pl.met.Detect.OLSRefactors.Load()
	}
	return rank1, refactors
}

// TestMonitorStreamingOLSEquivalence pins the streaming §4.2 plane to
// the offline diagnosis, over one plane and over 2- and 4-shard tiers:
// the monitor's DiagnoseEvent, quantifying from warm moments, must
// produce for every event the formula-based diagnosis and — within
// floating-point reassociation, with identical drops — the statistical
// quantification that Run folds from the same clusters' rows. It runs
// at MaxStage 2 on a full-rank stream, and at the default MaxStage 3 on
// streams where a parent counter equals its child bitwise (the
// collinearity rule's case: soft-page-fault drives elapsed and must
// never be dropped).
func TestMonitorStreamingOLSEquivalence(t *testing.T) {
	for _, shards := range testShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testStreamingOLSEquivalence(t, shards)
			for seed := int64(1); seed <= 10; seed++ {
				t.Run(fmt.Sprintf("stage3/seed=%d", seed), func(t *testing.T) { testStreamingOLSHierarchy(t, shards, seed) })
			}
		})
	}
}

func testStreamingOLSEquivalence(t *testing.T, shards int) {
	copt, opt := monOpts()
	opt.MaxStage = 2
	m := newTestMonitor(shards, copt, opt)
	feedOLSMonitor(m, 777)
	dopt := diagnose.DefaultOptions()
	dopt.MaxStage = 2
	fitted, quantified := diagnoseOnlineOffline(t, m, dopt)
	// The counters must show the plane at work.
	rank1, refactors := olsCounters(m)
	if rank1 == 0 {
		t.Fatal("streaming monitor performed no rank-1 moment updates")
	}
	if refactors == 0 {
		t.Fatal("streaming monitor recorded no initial moment builds")
	}
	// At least one factor must have been fitted — otherwise the
	// equivalence above is vacuous — and, over one plane, quantified.
	// On these tiers rank 2 is alone on its plane, so the region's
	// clusters hold its 77 fragments only, and suspension's p-value
	// (0.07) misses the significance cut the 4-rank population passes.
	if fitted == 0 || (shards == 1 && quantified == 0) {
		t.Fatalf("%d factors fitted, %d quantified; the workload should expose OS-noise signal", fitted, quantified)
	}
}

func testStreamingOLSHierarchy(t *testing.T, shards int, seed int64) {
	copt, opt := monOpts()
	m := newTestMonitor(shards, copt, opt)
	feedHierarchyMonitor(m, seed)
	fitted, _ := diagnoseOnlineOffline(t, m, diagnose.DefaultOptions())
	if fitted == 0 {
		t.Fatal("no factor fitted; the workload should expose OS-noise signal")
	}
}

// diagnoseOnlineOffline diagnoses every event of m twice — online
// (DiagnoseEvent, from warm moments) and offline (Run folding the same
// clusters from their rows) — and requires the two to agree
// (compareOLSReports), every cluster to have been served warm, and
// soft-page-fault never to be dropped. It returns how many factors the
// online diagnoses fitted and quantified.
func diagnoseOnlineOffline(t *testing.T, m *Monitor, dopt diagnose.Options) (fitted, quantified int) {
	t.Helper()
	events := m.Drain()
	if len(events) == 0 {
		t.Fatal("monitor produced no events")
	}
	for i := range events {
		repS := m.DiagnoseEvent(&events[i], dopt)
		if repS == nil {
			t.Fatalf("event %d: no diagnosis", i)
		}
		clusters, moments := eventClusters(m, &events[i])
		// The monitor must actually have served the event from warm
		// moments.
		if len(moments) == 0 || slices.Contains(moments, nil) {
			t.Fatalf("event %d: not every cluster has warm moments", i)
		}
		repB := diagnose.New(dopt).Run(clusters, nil)
		compareOLSReports(t, i, repS, repB)
		if slices.Contains(repS.OLS.Dropped, diagnose.SoftPageFault) {
			t.Fatalf("event %d: dropped soft-page-fault (%v)", i, repS.OLS.Dropped)
		}
		fitted += len(repS.OLS.PValue)
		quantified += len(repS.OLS.TimePerUnit)
	}
	return fitted, quantified
}

// compareOLSReports requires the formula-based diagnosis to be
// identical and the OLS quantification to agree within reassociation
// tolerance.
func compareOLSReports(t *testing.T, ev int, repS, repB *diagnose.Report) {
	t.Helper()
	if repS.AbnormalFrags != repB.AbnormalFrags || repS.NormalFrags != repB.NormalFrags ||
		repS.AnalyzedNS != repB.AnalyzedNS || repS.TotalSlowdownNS != repB.TotalSlowdownNS {
		t.Fatalf("event %d: formula diagnosis differs: %+v vs %+v", ev, repS, repB)
	}
	qs, qb := repS.OLS, repB.OLS
	if (qs == nil) != (qb == nil) {
		t.Fatalf("event %d: OLS presence differs: %v vs %v", ev, qs, qb)
	}
	if qs == nil {
		t.Fatalf("event %d: diagnosis produced no OLS quantification", ev)
	}
	if len(qs.Dropped) != len(qb.Dropped) {
		t.Fatalf("event %d: dropped sets differ: %v vs %v", ev, qs.Dropped, qb.Dropped)
	}
	for i := range qs.Dropped {
		if qs.Dropped[i] != qb.Dropped[i] {
			t.Fatalf("event %d: dropped[%d]: %v vs %v", ev, i, qs.Dropped[i], qb.Dropped[i])
		}
	}
	if !olsClose(qs.FGStat, qb.FGStat, 1e-6) || !olsClose(qs.FGPValue, qb.FGPValue, 1e-6) ||
		!olsClose(qs.R2, qb.R2, 1e-6) {
		t.Fatalf("event %d: fit differs: FG (%v,%v) R2 %v vs FG (%v,%v) R2 %v",
			ev, qs.FGStat, qs.FGPValue, qs.R2, qb.FGStat, qb.FGPValue, qb.R2)
	}
	if len(qs.PValue) != len(qb.PValue) || len(qs.TimePerUnit) != len(qb.TimePerUnit) {
		t.Fatalf("event %d: factor sets differ: %v vs %v", ev, qs, qb)
	}
	for f, wp := range qb.PValue {
		gp, ok := qs.PValue[f]
		if !ok || !olsClose(gp, wp, 1e-6) {
			t.Fatalf("event %d: PValue[%v]: %v (ok=%v) vs %v", ev, f, gp, ok, wp)
		}
	}
	for f, wv := range qb.TimePerUnit {
		gv, ok := qs.TimePerUnit[f]
		if !ok || !olsClose(gv, wv, 1e-6) {
			t.Fatalf("event %d: TimePerUnit[%v]: %v (ok=%v) vs %v", ev, f, gv, ok, wv)
		}
	}
}

// TestMonitorStreamingOLSStaleFallback: an edge that grew after the
// last window analysis has moments at an older generation — the
// monitor must not quantify from them, but fold the edge's clusters
// from their rows, exactly as the offline diagnosis does. Over a tier
// the edge that grows is the plane's that owns the event's first
// sample.
func TestMonitorStreamingOLSStaleFallback(t *testing.T) {
	for _, shards := range testShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testStreamingOLSStaleFallback(t, shards) })
	}
}

func testStreamingOLSStaleFallback(t *testing.T, shards int) {
	copt, opt := monOpts()
	opt.MaxStage = 2
	m := newTestMonitor(shards, copt, opt)
	feedOLSMonitor(m, 778)
	events := m.Drain()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if _, moments := eventClusters(m, &events[0]); len(moments) == 0 || slices.Contains(moments, nil) {
		t.Fatal("moments should be warm after Flush")
	}
	// Grow the edge past the analyzed generation without closing a new
	// window: only one rank reports, so no window completes and no
	// analysis refreshes the moments.
	rank := events[0].Regions[0].Samples[0].Rank
	m.Consume(rank, []trace.Fragment{{
		Rank: rank, Kind: trace.Comp, From: 1, State: 2,
		Start: 200_000_000, Elapsed: 1_000_000,
		Counters: trace.CountersView{TotIns: 1_000_000},
	}})
	clusters, moments := eventClusters(m, &events[0])
	for i, cm := range moments {
		if cm != nil {
			t.Fatalf("cluster %d: stale moments served: generation check failed", i)
		}
	}
	// The diagnosis is the one folded from the grown edge's rows.
	dopt := diagnose.DefaultOptions()
	dopt.MaxStage = 2
	rep := m.DiagnoseEvent(&events[0], dopt)
	if rep == nil || rep.OLS == nil {
		t.Fatal("stale edge produced no diagnosis")
	}
	if want := diagnose.New(dopt).Run(clusters, nil); !reflect.DeepEqual(rep, want) {
		t.Fatalf("stale edge: diagnosis %+v, folded from its rows %+v", rep, want)
	}
}

// TestMonitorStreamingOLSParallelWorkers drives the moment fold from
// four stage-1 workers over twelve edges (each advancing its own sample
// store) and requires every edge's moments to equal, bit for bit, those
// of the same stream analyzed by one worker: an edge's advances are
// ordered by its own generations, not by which worker ran them. Run
// under -race it also pins the locking itself. Two streams: OS noise
// on every fragment (the dense fold) and idle OS counters (the sparse
// fold: only the intercept and elapsed are nonzero).
func TestMonitorStreamingOLSParallelWorkers(t *testing.T) {
	for _, idle := range []bool{false, true} {
		t.Run(fmt.Sprintf("idle=%v", idle), func(t *testing.T) { testOLSParallelWorkers(t, idle) })
	}
}

func testOLSParallelWorkers(t *testing.T, idle bool) {
	const ranks, edges = 4, 12
	run := func(parallelism int) *Monitor {
		copt, opt := monOpts()
		copt.Detect.Parallelism = parallelism
		m := NewMonitor(NewPool(ranks, copt), opt)
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
	// moments reads every edge's warm moments at its current generation.
	moments := func(m *Monitor) map[trace.EdgeKey][]*diagnose.ClusterMoments {
		m.mu.Lock()
		defer m.mu.Unlock()
		views := m.Pool.lockPlanes()
		defer m.Pool.unlockPlanes()
		out := make(map[trace.EdgeKey][]*diagnose.ClusterMoments)
		for _, e := range views[0].Edges() {
			ms, ok := m.Pool.planes[0].an.ClusterMoments(cluster.EdgeKey(e.Key), e.Gen, m.olsFactors)
			if !ok {
				t.Fatalf("edge %v: no warm moments at its generation", e.Key)
			}
			out[e.Key] = ms
		}
		return out
	}
	seqM, par := moments(run(1)), run(4)
	parM := moments(par)
	if len(seqM) != edges || len(parM) != edges {
		t.Fatalf("moments kept for %d / %d edges, want %d", len(seqM), len(parM), edges)
	}
	if par.Pool.planes[0].met.Detect.OLSRank1Updates.Load() == 0 {
		t.Fatal("no rank-1 updates: the delta path never ran")
	}
	for key, want := range seqM {
		if got := parM[key]; !reflect.DeepEqual(got, want) {
			t.Fatalf("edge %v: moments differ between 1 and 4 workers", key)
		}
	}
}
