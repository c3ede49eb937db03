package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"vapro/internal/apps"
	"vapro/internal/collector"
	"vapro/internal/detect"
	"vapro/internal/diagnose"
	"vapro/internal/noise"
	"vapro/internal/sim"
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

func TestRecordAnalyzeRoundTrip(t *testing.T) {
	opt := DefaultOptions()
	opt.Ranks = 8
	sch := noise.NewSchedule()
	sch.Add(noise.CPUContention(0, 1, sim.Time(700*sim.Millisecond), sim.Time(1200*sim.Millisecond), 0.5))
	opt.Noise = sch
	res := RunTraced(apps.NewCG(10), opt)

	var buf bytes.Buffer
	if err := res.SaveRecording(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := AnalyzeRecording(&buf, opt.Collector.Detect)
	if err != nil {
		t.Fatal(err)
	}
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
	// Diagnosis works on the reloaded data.
	if len(re.Detection.Regions) > 0 {
		rep := re.Diagnose(&re.Detection.Regions[0], diagnose.DefaultOptions())
		if rep == nil {
			t.Fatal("no diagnosis from reloaded recording")
		}
	}
}

// TestSaveRecordingOfEveryRun: a recording is written from the run's
// graph, so an offline and an online run both save, the saved file
// re-analyzes to the run's own Detection, and saving the re-analysis
// writes the same stream again.
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
		res  *Result
	}{
		{"offline", RunTraced(apps.NewCG(10), opt)},
		{"online", RunOnline(apps.NewCG(10), opt).Result},
	} {
		var saved bytes.Buffer
		if err := tc.res.SaveRecording(&saved); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		first := saved.Bytes()
		re, err := AnalyzeRecording(bytes.NewReader(first), opt.Collector.Detect)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !sameDetection(re.Detection, tc.res.Detection) {
			t.Fatalf("%s: re-analyzed detection differs from the run's", tc.name)
		}
		var again bytes.Buffer
		if err := re.SaveRecording(&again); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// gob writes a map in Go's randomized iteration order, so two
		// saves may place SiteNames' entries differently: compare what
		// the files hold.
		if !reflect.DeepEqual(readRecording(t, first), readRecording(t, again.Bytes())) {
			t.Fatalf("%s: save→analyze→save changed the recording", tc.name)
		}
	}
}

func readRecording(t *testing.T, file []byte) *collector.Recording {
	t.Helper()
	rec, err := collector.ReadRecording(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	return rec
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
