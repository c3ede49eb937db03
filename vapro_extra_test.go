package vapro_test

import (
	"bytes"
	"encoding/json"
	"image/png"
	"strings"
	"testing"

	"vapro"
)

// noisyRun produces one small analyzed run shared by the export tests.
func noisyRun(t *testing.T) *vapro.Result {
	t.Helper()
	app, err := vapro.App("CG")
	if err != nil {
		t.Fatal(err)
	}
	opt := vapro.DefaultOptions()
	opt.Ranks = 16
	sch := vapro.NewNoise()
	sch.Add(vapro.CPUContention(0, 1, vapro.Seconds(0.9), vapro.Seconds(1.6), 0.5))
	opt.Noise = sch
	return vapro.Run(app, opt)
}

func TestRenderExports(t *testing.T) {
	res := noisyRun(t)

	svg := vapro.RenderHeatMapSVG(res, vapro.Computation)
	if !strings.HasPrefix(svg, "<svg") {
		t.Fatal("svg export")
	}

	dot := vapro.RenderSTG(res)
	if !strings.HasPrefix(dot, "digraph stg {") {
		t.Fatal("dot export")
	}
	// Real call-sites appear as labels.
	if !strings.Contains(dot, "npb.go:") {
		t.Fatal("dot export lost call-site names")
	}

	var buf bytes.Buffer
	if err := vapro.WriteHeatMapPNG(&buf, res, vapro.Computation); err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(&buf); err != nil {
		t.Fatal(err)
	}

	htmlDoc := vapro.ReportHTML(res)
	if !strings.Contains(htmlDoc, "Progressive diagnosis") {
		t.Fatal("html report")
	}

	data, err := vapro.ReportJSON(res, true)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["app"] != "CG" {
		t.Fatalf("json app: %v", m["app"])
	}
}

// A run recorded through the public API (OpenJournal, Options.Journal,
// SaveRunInfo) re-analyzes through AnalyzeJournal to the run's own
// summary.
func TestRecordingPublicRoundTrip(t *testing.T) {
	app, err := vapro.App("CG")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jl, err := vapro.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := vapro.DefaultOptions()
	opt.Ranks = 16
	opt.Noise = vapro.NewNoise().Add(vapro.CPUContention(0, 1, vapro.Seconds(0.9), vapro.Seconds(1.6), 0.5))
	opt.Journal = jl
	res := vapro.Run(app, opt)
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := res.SaveRunInfo(dir); err != nil {
		t.Fatal(err)
	}
	re, err := vapro.AnalyzeJournal(dir, 0, vapro.DefaultOptions().Collector.Detect)
	if err != nil {
		t.Fatal(err)
	}
	if re.Summary() != res.Summary() {
		t.Fatalf("summary through the public round trip:\n got %s\nwant %s", re.Summary(), res.Summary())
	}
}

func TestRunOnlinePublic(t *testing.T) {
	app, _ := vapro.App("CG")
	opt := vapro.DefaultOptions()
	opt.Ranks = 16
	opt.Collector.Period = vapro.Duration(200 * 1e6)
	opt.Collector.Overlap = vapro.Duration(100 * 1e6)
	sch := vapro.NewNoise()
	sch.Add(vapro.CPUContention(0, -1, vapro.Seconds(0.9), vapro.Seconds(1.8), 0.5))
	opt.Noise = sch
	res := vapro.RunOnline(app, opt)
	if len(res.Events) == 0 {
		t.Fatal("no online events through the public API")
	}
}

func TestSizeScalerPublic(t *testing.T) {
	app, _ := vapro.App("EP")
	app.(vapro.SizeScaler).ScaleSize(0.25)
	opt := vapro.DefaultOptions()
	opt.Ranks = 4
	small := vapro.RunPlain(app, opt)

	full, _ := vapro.App("EP")
	ref := vapro.RunPlain(full, opt)
	if small.Makespan*2 > ref.Makespan {
		t.Fatalf("scaling ineffective: %v vs %v", small.Makespan, ref.Makespan)
	}
}

func TestDeterministicPublicPipeline(t *testing.T) {
	a := noisyRun(t)
	b := noisyRun(t)
	if a.Makespan != b.Makespan {
		t.Fatal("makespan not deterministic")
	}
	ja, _ := vapro.ReportJSON(a, true)
	jb, _ := vapro.ReportJSON(b, true)
	if !bytes.Equal(ja, jb) {
		t.Fatal("full analysis pipeline not bit-for-bit deterministic")
	}
}
