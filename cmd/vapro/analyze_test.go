package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vapro"
	"vapro/internal/collector"
	"vapro/internal/sim"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// `vapro analyze -journal DIR` is the offline half of `vapro -record
// DIR`: its report opens with the summary AnalyzeJournal gives for the
// directory — the run's own — and renders the heat maps beneath it.
func TestAnalyzeRecording(t *testing.T) {
	app, err := vapro.App("CG")
	if err != nil {
		t.Fatal(err)
	}
	app.(vapro.SizeScaler).ScaleSize(0.5)
	dir := t.TempDir()
	jl, err := vapro.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := vapro.DefaultOptions()
	opt.Ranks = 8
	opt.Journal = jl
	res := vapro.Run(app, opt)
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := res.SaveRunInfo(dir); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := analyzeMain([]string{"-journal", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("analyze exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	summary, rest, _ := strings.Cut(out, "\n")
	if summary != res.Summary() {
		t.Fatalf("summary line:\n got %q\nwant %q", summary, res.Summary())
	}
	if !strings.Contains(rest, "performance heat map") {
		t.Fatalf("no heat map rendered:\n%s", out)
	}
	if strings.Contains(out, "window ") {
		t.Fatalf("window rows printed without -from or -to:\n%s", out)
	}
}

// Without a journal, or with a positional argument, analyze prints its
// usage and exits 2. A journal directory that holds no journal is an
// error naming it, exit 1.
func TestAnalyzeUsage(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		nil,
		{"-journal", dir, "run.vrec"},
		{"a.vrec", "b.vrec"},
		{"-diagnose"},
	} {
		var stdout, stderr bytes.Buffer
		if code := analyzeMain(args, &stdout, &stderr); code != 2 {
			t.Fatalf("analyze %q exited %d, want 2", args, code)
		}
		if !strings.HasPrefix(stderr.String(), "usage: vapro analyze") || stdout.Len() != 0 {
			t.Fatalf("analyze %q: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
	file := filepath.Join(dir, "run.vrec")
	if err := os.WriteFile(file, []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := analyzeMain([]string{"-journal", file, "-diagnose"}, &stdout, &stderr); code != 1 {
		t.Fatalf("analyze -journal FILE exited %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), file) || stdout.Len() != 0 {
		t.Fatalf("analyze -journal FILE: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

// `vapro analyze -journal` over a sharded serve's journal replays shard
// i into plane i of a tier like the live one, so it reports the live
// tier's windows row for row. The stream makes that observable: one
// shard's ranks run 2x slower for the whole run, which is variance
// against one global population but none within either plane.
func TestAnalyzeShardedJournal(t *testing.T) {
	const ranks, shards, batches, perBatch = 8, 2, 40, 75
	dir := t.TempDir()
	live := collector.NewShardedPool(ranks, shards, collector.DefaultOptions())
	logs := make([]*wal.Log, shards)
	for i := range logs {
		l, err := wal.Open(filepath.Join(dir, fmt.Sprintf("shard%d", i)), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	clock := make([]int64, ranks)
	frames := 0
	for b := 0; b < batches; b++ {
		for r := 0; r < ranks; r++ {
			shard := live.Owner(r)
			el := int64(10 * sim.Millisecond)
			if shard == 1 {
				el *= 2
			}
			frags := make([]trace.Fragment, perBatch)
			for i := range frags {
				frags[i] = trace.Fragment{
					Rank: r, Kind: trace.Comp, From: 1, State: 2, Start: clock[r], Elapsed: el,
					Counters: trace.CountersView{TotIns: 1_000_000},
				}
				clock[r] += el
			}
			if err := logs[shard].Append(trace.AppendBatchSeq(nil, r, uint64(b+1), frags)); err != nil {
				t.Fatal(err)
			}
			live.WireSink(shard).Consume(r, frags)
			frames++
		}
	}
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var want bytes.Buffer
	rows := live.WindowResults()
	if err := printWindowsJSON(&want, rows, frames); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("the live tier analyzed no windows")
	}
	var stdout, stderr bytes.Buffer
	if code := analyzeMain([]string{"-journal", dir, "-from", "0", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("analyze exited %d: %s", code, stderr.String())
	}
	if stdout.String() != want.String() {
		t.Fatalf("analyze -journal rows differ from the live tier's:\n got %s\nwant %s", stdout.String(), want.String())
	}

	// The same journal gets the run mode's report: a summary over every
	// fragment of both shards.
	stdout.Reset()
	if code := analyzeMain([]string{"-journal", dir, "-diagnose"}, &stdout, &stderr); code != 0 {
		t.Fatalf("analyze -diagnose exited %d: %s", code, stderr.String())
	}
	summary, _, _ := strings.Cut(stdout.String(), "\n")
	if want := fmt.Sprintf("journal: %d ranks, ", ranks); !strings.HasPrefix(summary, want) ||
		!strings.Contains(summary, fmt.Sprintf("; %d fragments (", batches*ranks*perBatch)) {
		t.Fatalf("analyze -diagnose summary %q", summary)
	}
}
