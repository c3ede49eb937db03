package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"vapro/internal/apps"
	"vapro/internal/detect"
	"vapro/internal/diagnose"
	"vapro/internal/noise"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/wal"
)

func TestRunOnline(t *testing.T) {
	opt := DefaultOptions()
	opt.Ranks = 16
	opt.Collector.Period = 200 * sim.Millisecond
	opt.Collector.Overlap = 100 * sim.Millisecond
	opt.Collector.Detect.Window = 50 * sim.Millisecond

	// Quiet run first: no events, stage stays at 1.
	quiet := RunOnline(apps.NewCG(10), opt)
	if len(quiet.Events) != 0 {
		t.Fatalf("quiet online run produced %d events", len(quiet.Events))
	}
	if quiet.Monitor.Stage() != 1 {
		t.Fatal("quiet run escalated")
	}

	// Noisy run: events appear and the armed groups widen mid-run.
	sch := noise.NewSchedule()
	sch.Add(noise.NodeCPUContention(0, sim.Time(800*sim.Millisecond), sim.Time(1500*sim.Millisecond), 0.5))
	opt.Noise = sch
	res := RunOnline(apps.NewCG(30), opt)
	if len(res.Events) == 0 {
		t.Fatal("online monitor missed injected noise")
	}
	ev := res.Events[0]
	if len(ev.Regions) == 0 {
		t.Fatal("event without regions")
	}
	if !ev.ArmedAfter.Has(sim.GroupBackend) {
		t.Fatal("no progressive arming after detection")
	}
	if res.Monitor.Stage() <= 1 {
		t.Fatal("stage did not escalate")
	}
	// The offline view is still available.
	if res.Detection == nil || res.Graph.NumFragments() == 0 {
		t.Fatal("offline analysis missing from online result")
	}
}

// recordAndReplay runs one job recording through Options.Journal into a
// fresh directory, and replays that journal as `vapro analyze` does.
func recordAndReplay(t *testing.T, opt Options, run func(Options) *Result) (res, re *Result) {
	t.Helper()
	dir := t.TempDir()
	jl, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = jl
	res = run(opt)
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := res.SaveRunInfo(dir); err != nil {
		t.Fatal(err)
	}
	re, err = AnalyzeJournal(dir, 0, opt.Collector.Detect)
	if err != nil {
		t.Fatal(err)
	}
	return res, re
}

// TestRecordAnalyzeRoundTrip: a traced run's journal replays to the same
// fragments, coverage and regions, and diagnosis works on the replay.
func TestRecordAnalyzeRoundTrip(t *testing.T) {
	opt := DefaultOptions()
	opt.Ranks = 8
	sch := noise.NewSchedule()
	sch.Add(noise.CPUContention(0, 1, sim.Time(700*sim.Millisecond), sim.Time(1200*sim.Millisecond), 0.5))
	opt.Noise = sch
	res, re := recordAndReplay(t, opt, func(opt Options) *Result { return RunTraced(apps.NewCG(10), opt) })
	if re.Graph.NumFragments() != res.Graph.NumFragments() {
		t.Fatalf("fragments: %d vs %d", re.Graph.NumFragments(), res.Graph.NumFragments())
	}
	if re.Detection.OverallCoverage != res.Detection.OverallCoverage {
		t.Fatalf("coverage differs after round trip: %v vs %v",
			re.Detection.OverallCoverage, res.Detection.OverallCoverage)
	}
	if len(re.Detection.Regions) != len(res.Detection.Regions) {
		t.Fatalf("regions: %d vs %d", len(re.Detection.Regions), len(res.Detection.Regions))
	}
	if len(re.Detection.Regions) == 0 {
		t.Fatal("the injected contention was not detected")
	}
	if rep := re.Diagnose(&re.Detection.Regions[0], diagnose.DefaultOptions()); rep == nil {
		t.Fatal("no diagnosis from the replayed journal")
	}
}

// TestSaveRecordingOfEveryRun: the recording is the journal the run's
// graph writes, so an offline and an online run both record, and each
// journal replays to the run's own graph — every element at the same
// generation and log length — and to the run's own Detection.
func TestSaveRecordingOfEveryRun(t *testing.T) {
	opt := DefaultOptions()
	opt.Ranks = 8
	opt.Collector.Period = 200 * sim.Millisecond
	opt.Collector.Overlap = 100 * sim.Millisecond
	sch := noise.NewSchedule()
	sch.Add(noise.CPUContention(0, 1, sim.Time(700*sim.Millisecond), sim.Time(1200*sim.Millisecond), 0.5))
	opt.Noise = sch
	for _, tc := range []struct {
		name string
		run  func(opt Options) *Result
	}{
		{"offline", func(opt Options) *Result { return RunTraced(apps.NewCG(10), opt) }},
		{"online", func(opt Options) *Result { return RunOnline(apps.NewCG(10), opt).Result }},
	} {
		res, re := recordAndReplay(t, opt, tc.run)
		if re.Summary() != res.Summary() {
			t.Fatalf("%s: summary\n got %s\nwant %s", tc.name, re.Summary(), res.Summary())
		}
		sameElement := func(what string, a, b *stg.Element) {
			t.Helper()
			if a.Gen != b.Gen || a.Log().Len() != b.Log().Len() {
				t.Fatalf("%s: %s replayed to a different element", tc.name, what)
			}
		}
		for _, v := range res.Graph.Vertices() {
			w := re.Graph.Vertex(v.Key)
			if w == nil {
				t.Fatalf("%s: vertex %x missing after replay", tc.name, v.Key)
			}
			sameElement(fmt.Sprintf("vertex %x", v.Key), &v.Element, &w.Element)
		}
		for _, e := range res.Graph.Edges() {
			f := re.Graph.Edge(e.Key)
			if f == nil {
				t.Fatalf("%s: edge %v missing after replay", tc.name, e.Key)
			}
			sameElement(fmt.Sprintf("edge %v", e.Key), &e.Element, &f.Element)
		}
		if st, rst := res.Graph.Stats(), re.Graph.Stats(); st != rst {
			t.Fatalf("%s: graph stats %+v, replayed %+v", tc.name, st, rst)
		}
		if !sameDetection(re.Detection, res.Detection) {
			t.Fatalf("%s: re-analyzed detection differs from the run's", tc.name)
		}
		if len(re.Detection.Regions) == 0 {
			t.Fatalf("%s: the injected contention was not detected", tc.name)
		}
	}
}

// sameDetection is reflect.DeepEqual with heat-map cells compared
// bitwise: empty cells hold NaN, and NaN != NaN would fail DeepEqual on
// otherwise identical results.
func sameDetection(a, b *detect.Result) bool {
	if len(a.Maps) != len(b.Maps) {
		return false
	}
	for c, ha := range a.Maps {
		hb := b.Maps[c]
		if hb == nil || len(ha.Cells) != len(hb.Cells) {
			return false
		}
		for i := range ha.Cells {
			if math.Float64bits(ha.Cells[i]) != math.Float64bits(hb.Cells[i]) {
				return false
			}
		}
		hac, hbc := *ha, *hb
		hac.Cells, hbc.Cells = nil, nil
		if !reflect.DeepEqual(hac, hbc) {
			return false
		}
	}
	ac, bc := *a, *b
	ac.Maps, bc.Maps = nil, nil
	return reflect.DeepEqual(ac, bc)
}
