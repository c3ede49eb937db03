package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vapro"
)

// `vapro analyze FILE.vrec` is the offline half of `vapro -record`: its
// report opens with the summary AnalyzeRecording gives for the file, and
// renders the heat maps beneath it.
func TestAnalyzeRecording(t *testing.T) {
	app, err := vapro.App("CG")
	if err != nil {
		t.Fatal(err)
	}
	app.(vapro.SizeScaler).ScaleSize(0.5)
	opt := vapro.DefaultOptions()
	opt.Ranks = 8
	opt.Record = true
	res := vapro.Run(app, opt)
	path := filepath.Join(t.TempDir(), "run.vrec")
	if err := writeFile(path, res.SaveRecording); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := analyzeMain([]string{path}, &stdout, &stderr); code != 0 {
		t.Fatalf("analyze exited %d: %s", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := vapro.AnalyzeRecording(f, vapro.DefaultOptions().Collector.Detect)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	summary, rest, _ := strings.Cut(out, "\n")
	if summary != want.Summary() {
		t.Fatalf("summary line:\n got %q\nwant %q", summary, want.Summary())
	}
	if !strings.Contains(rest, "performance heat map") {
		t.Fatalf("no heat map rendered:\n%s", out)
	}
}

// With neither a journal nor a recording (or with both), analyze prints
// its usage and exits 2.
func TestAnalyzeUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"-journal", t.TempDir(), "run.vrec"}, {"a.vrec", "b.vrec"}} {
		var stdout, stderr bytes.Buffer
		if code := analyzeMain(args, &stdout, &stderr); code != 2 {
			t.Fatalf("analyze %q exited %d, want 2", args, code)
		}
		if !strings.HasPrefix(stderr.String(), "usage: vapro analyze") || stdout.Len() != 0 {
			t.Fatalf("analyze %q: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
}
