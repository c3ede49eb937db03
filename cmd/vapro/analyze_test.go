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
	dir := t.TempDir()
	for _, args := range [][]string{
		nil,
		{"-journal", dir, "run.vrec"},
		{"a.vrec", "b.vrec"},
		// A flag the input ignores: report flags with a journal, range
		// flags with a recording.
		{"-journal", dir, "-diagnose"},
		{"-journal", dir, "-html", filepath.Join(dir, "r.html")},
		{"-from", "1", "a.vrec"},
	} {
		var stdout, stderr bytes.Buffer
		if code := analyzeMain(args, &stdout, &stderr); code != 2 {
			t.Fatalf("analyze %q exited %d, want 2", args, code)
		}
		if !strings.HasPrefix(stderr.String(), "usage: vapro analyze") || stdout.Len() != 0 {
			t.Fatalf("analyze %q: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
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
	if code := analyzeMain([]string{"-journal", dir, "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("analyze exited %d: %s", code, stderr.String())
	}
	if stdout.String() != want.String() {
		t.Fatalf("analyze -journal rows differ from the live tier's:\n got %s\nwant %s", stdout.String(), want.String())
	}
}

// journalDirs returns shard i's journal at index i, however its name
// sorts: shard10 sorts before shard2.
func TestJournalDirsShardOrder(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 11; i++ {
		if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("shard%d", i)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := journalDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dirs {
		if want := filepath.Join(dir, fmt.Sprintf("shard%d", i)); d != want {
			t.Fatalf("dirs[%d] = %s, want %s", i, d, want)
		}
	}
	if err := os.RemoveAll(filepath.Join(dir, "shard4")); err != nil {
		t.Fatal(err)
	}
	if _, err := journalDirs(dir); err == nil {
		t.Fatal("a tier missing shard4 resolved")
	}
}
