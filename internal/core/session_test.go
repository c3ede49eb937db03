package core

import (
	"strings"
	"testing"

	"vapro/internal/apps"
	"vapro/internal/detect"
	"vapro/internal/diagnose"
	"vapro/internal/interpose"
	"vapro/internal/noise"
	"vapro/internal/sim"
)

func smallOpt() Options {
	opt := DefaultOptions()
	opt.Ranks = 16
	opt.Collector.Detect.Window = 50 * sim.Millisecond
	return opt
}

func TestPlainVsTraced(t *testing.T) {
	plain := RunPlain(apps.NewCG(5), smallOpt())
	traced := RunTraced(apps.NewCG(5), smallOpt())
	if plain.Ranks != 16 || traced.Ranks != 16 {
		t.Fatal("rank counts")
	}
	ov := traced.Overhead(plain)
	if ov <= 0 || ov > 0.10 {
		t.Fatalf("overhead %.4f outside (0, 10%%]", ov)
	}
	if traced.Graph.NumFragments() == 0 || traced.Events == 0 {
		t.Fatal("no fragments collected")
	}
	if traced.Detection == nil || traced.Detection.OverallCoverage <= 0 {
		t.Fatal("no detection result")
	}
	if !strings.Contains(traced.Summary(), "CG") {
		t.Fatalf("summary: %q", traced.Summary())
	}
}

func TestRunDeterminism(t *testing.T) {
	a := RunTraced(apps.NewCG(3), smallOpt())
	b := RunTraced(apps.NewCG(3), smallOpt())
	if a.Makespan != b.Makespan {
		t.Fatalf("traced runs not deterministic: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.Graph.NumFragments() != b.Graph.NumFragments() {
		t.Fatal("fragment counts differ")
	}
	if a.Detection.OverallCoverage != b.Detection.OverallCoverage {
		t.Fatal("coverage differs")
	}
}

func TestNoiseDetectionAndDiagnosis(t *testing.T) {
	opt := smallOpt()
	// Place the noise over the iteration phase (after ~0.6s init).
	sch := noise.NewSchedule()
	sch.Add(noise.CPUContention(0, 2, sim.Time(800*sim.Millisecond), sim.Time(1600*sim.Millisecond), 0.5))
	opt.Noise = sch
	res := RunTraced(apps.NewCG(30), opt)

	var compRegion *detect.Region
	for i := range res.Detection.Regions {
		if res.Detection.Regions[i].Class == detect.Computation {
			compRegion = &res.Detection.Regions[i]
			break
		}
	}
	if compRegion == nil {
		t.Fatal("CPU noise not detected")
	}
	if compRegion.RankMin > 2 || compRegion.RankMax < 2 {
		t.Fatalf("region misses rank 2: %+v", compRegion)
	}

	rep := res.Diagnose(compRegion, diagnose.DefaultOptions())
	if rep.AbnormalFrags == 0 {
		t.Fatal("diagnosis found nothing")
	}
	if len(rep.Factors) == 0 || rep.Factors[0].Factor != diagnose.Suspension {
		t.Fatalf("top factors %+v, want suspension first for CPU contention", rep.Factors)
	}

	// DiagnoseTop must find the same region.
	if top := res.DiagnoseTop(detect.Computation, diagnose.DefaultOptions()); top == nil {
		t.Fatal("DiagnoseTop found nothing")
	}
	// DiagnoseAll covers the whole run.
	if all := res.DiagnoseAll(detect.Computation, diagnose.DefaultOptions()); all.AbnormalFrags == 0 {
		t.Fatal("DiagnoseAll found nothing")
	}
}

func TestDiagnoseTopNilWhenQuiet(t *testing.T) {
	res := RunTraced(apps.NewCG(3), smallOpt())
	if rep := res.DiagnoseTop(detect.IOClass, diagnose.DefaultOptions()); rep != nil {
		t.Fatal("diagnosed IO variance in an app without IO")
	}
}

func TestFixedClusters(t *testing.T) {
	res := RunTraced(apps.NewCG(3), smallOpt())
	comp := res.FixedClusters(detect.Computation)
	if len(comp) == 0 {
		t.Fatal("no computation clusters")
	}
	for _, c := range comp {
		if len(c) < 5 {
			t.Fatalf("fixed cluster with %d members", len(c))
		}
	}
	comm := res.FixedClusters(detect.Communication)
	if len(comm) == 0 {
		t.Fatal("no communication clusters")
	}
}

func TestThreadedAppPlacement(t *testing.T) {
	opt := DefaultOptions()
	opt.Ranks = 8
	res := RunTraced(apps.NewPageRank(10), opt)
	if res.Ranks != 8 {
		t.Fatalf("ranks: %d", res.Ranks)
	}
	if res.Graph.NumFragments() == 0 {
		t.Fatal("no fragments from threaded app")
	}
}

func TestContextModeOption(t *testing.T) {
	opt := smallOpt()
	optCA := opt
	optCA.Interpose.Mode = interpose.ContextAware
	cf := RunTraced(apps.NewMG(6), opt)
	ca := RunTraced(apps.NewMG(6), optCA)
	// Context-aware shatters MG states.
	if ca.Graph.NumVertices() <= cf.Graph.NumVertices() {
		t.Fatalf("CA vertices (%d) not more than CF (%d)", ca.Graph.NumVertices(), cf.Graph.NumVertices())
	}
	if ca.Makespan <= cf.Makespan {
		t.Fatal("CA backtracing cost missing")
	}
}

func TestCollectorPoolWiring(t *testing.T) {
	res := RunTraced(apps.NewCG(3), smallOpt())
	st := res.Pool.Stats(res.Makespan)
	if res.Pool.FragmentCount() != res.Graph.NumFragments() {
		t.Fatal("pool stats disagree with graph")
	}
	if st.BytesPerRankSecond <= 0 {
		t.Fatal("no storage rate")
	}
	wins := res.Pool.WindowResults()
	if len(wins) == 0 {
		t.Fatal("no window results")
	}
}

func TestSiteNamesResolved(t *testing.T) {
	res := RunTraced(apps.NewCG(3), smallOpt())
	found := false
	for _, name := range res.SiteNames {
		if strings.Contains(name, "npb.go:") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("call-sites not resolved to source locations: %v", res.SiteNames)
	}
}
