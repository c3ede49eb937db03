package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"vapro"
	"vapro/internal/collector"
	"vapro/internal/sim"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// analyzeUsage is printed, with exit status 2, when analyze gets
// neither input or both.
const analyzeUsage = `usage: vapro analyze -journal DIR [-from S] [-to S] [-ranks N] [-json]
       vapro analyze [-diagnose] [-json] [-html F] [-png F] [-svg F] [-dot F] FILE.vrec`

// analyzeMain re-runs the analysis offline over one of two inputs: a
// delivery journal (-journal DIR, see analyzeJournal) or one fragment
// recording written by `vapro -record FILE.vrec`, for which it prints
// the run mode's report (printReport). It returns the process exit
// status.
func analyzeMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vapro analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	journal := fs.String("journal", "", "journal directory written by vapro serve -journal")
	from := fs.Float64("from", 0, "journal: range start, seconds of virtual time")
	to := fs.Float64("to", 0, "journal: range end, seconds of virtual time (0 = end of data)")
	ranks := fs.Int("ranks", 0, "journal: rank-space size (0 = infer from the journaled frames)")
	jsonOut := fs.Bool("json", false, "emit JSON instead of text: a journal's window rows, or a recording's report")
	rf := addReportFlags(fs)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	var err error
	switch {
	case *journal != "" && fs.NArg() == 0:
		err = analyzeJournal(stdout, *journal, *from, *to, *ranks, *jsonOut)
	case *journal == "" && fs.NArg() == 1:
		err = analyzeRecording(stdout, fs.Arg(0), *jsonOut, rf)
	default:
		fmt.Fprintln(stderr, analyzeUsage)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "vapro analyze:", err)
		return 1
	}
	return 0
}

// analyzeRecording re-analyzes a fragment recording and prints its
// report (printReport), or with asJSON its JSON report alone.
func analyzeRecording(w io.Writer, path string, asJSON bool, rf reportFlags) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := vapro.AnalyzeRecording(f, vapro.DefaultOptions().Collector.Detect)
	if err != nil {
		return err
	}
	if asJSON {
		data, err := vapro.ReportJSON(res, true)
		if err == nil {
			_, err = w.Write(data)
		}
		return err
	}
	return printReport(w, res, nil, "", rf)
}

// analyzeJournal replays a delivery journal written by `vapro serve
// -journal` into a fresh offline copy of the live planes and runs the
// windowed analysis over a virtual-time range. The journal holds the
// delivered frame stream in delivery order, so the rebuilt state —
// fragment logs, sequence gaps, outage intervals — matches what the
// live server held: journal i replays into plane i of a pool with as
// many planes as the serve had, so every rank is owned by the plane that
// owned it live. The window grid is anchored at zero
// exactly like the live one: a range query returns the same rows the
// live WindowResults would, filtered to the requested [from, to) span.
func analyzeJournal(w io.Writer, journal string, from, to float64, ranks int, asJSON bool) error {
	dirs, err := journalDirs(journal)
	if err != nil {
		return err
	}

	// First pass: recover every log (truncating torn tails) and size
	// the rank space off the journaled frames themselves.
	logs := make([]*wal.Log, 0, len(dirs))
	defer func() {
		for _, l := range logs {
			_ = l.Close()
		}
	}()
	maxRank, frames := -1, 0
	for _, d := range dirs {
		l, err := wal.Open(d, wal.Options{})
		if err != nil {
			return err
		}
		logs = append(logs, l)
		err = l.Replay(func(payload []byte) error {
			meta, _, derr := trace.DecodeBatchMeta(payload)
			if derr != nil {
				return fmt.Errorf("undecodable journaled frame in %s: %w", d, derr)
			}
			if meta.Rank > maxRank {
				maxRank = meta.Rank
			}
			frames++
			return nil
		})
		if err != nil {
			return err
		}
	}
	if frames == 0 {
		return fmt.Errorf("journal holds no frames")
	}
	n := maxRank + 1
	if ranks > n {
		n = ranks
	}

	// Second pass: replay for real through the collector path (sequence
	// observation included), then run the range query. Shards replay
	// one after the other: ranks never span shards, so each rank's frame
	// order is exactly its original delivery order.
	pool := collector.NewShardedPool(n, len(logs), collector.DefaultOptions())
	replayed := 0
	for i, l := range logs {
		nf, err := collector.ReplayJournal(l, pool.WireSink(i))
		if err != nil {
			return err
		}
		replayed += nf
	}
	fromNS := int64(from * float64(sim.Second))
	toNS := int64(to * float64(sim.Second))
	results := pool.WindowResultsRange(fromNS, toNS)

	if asJSON {
		return printWindowsJSON(w, results, replayed)
	}
	fmt.Fprintf(w, "replayed %d frame(s) from %d journal(s), %d rank(s), %d window(s)\n",
		replayed, len(logs), n, len(results))
	for _, win := range results {
		fmt.Fprintf(w, "window %.2fs-%.2fs: %d region(s)\n",
			win.Start.Seconds(), win.End.Seconds(), len(win.Result.Regions))
		for _, reg := range win.Result.Regions {
			fmt.Fprintf(w, "  %-13s ranks %d-%d cells %d mean perf %.3f loss %.3fms\n",
				reg.Class, reg.RankMin, reg.RankMax, reg.Cells, reg.MeanPerf,
				float64(reg.LossNS)/1e6)
		}
	}
	return nil
}

// journalDirs resolves the journal layout: a single-server journal is
// segments directly in dir; a sharded serve writes one shard<i>/
// subdirectory per plane, returned at index i — by the number in its
// name, not lexically (shard10 sorts before shard2) — and every shard
// of the tier must be there.
func journalDirs(dir string) ([]string, error) {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) > 0 {
		return []string{dir}, nil
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "shard*"))
	byIndex := map[int]string{}
	for _, s := range shards {
		i, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(s), "shard"))
		if fi, serr := os.Stat(s); err == nil && i >= 0 && serr == nil && fi.IsDir() {
			byIndex[i] = s
		}
	}
	if len(byIndex) == 0 {
		return nil, fmt.Errorf("no journal segments or shard*/ subdirectories under %s", dir)
	}
	out := make([]string, len(byIndex))
	for i, s := range byIndex {
		if i >= len(out) {
			return nil, fmt.Errorf("%s: shard directories are not shard0..shard%d", dir, len(out)-1)
		}
		out[i] = s
	}
	return out, nil
}

// windowRow is the stable JSON shape for one analyzed window.
type windowRow struct {
	StartSec float64     `json:"start_sec"`
	EndSec   float64     `json:"end_sec"`
	Regions  []regionRow `json:"regions"`
}

type regionRow struct {
	Class    string  `json:"class"`
	RankMin  int     `json:"rank_min"`
	RankMax  int     `json:"rank_max"`
	Cells    int     `json:"cells"`
	MeanPerf float64 `json:"mean_perf"`
	LossMS   float64 `json:"loss_ms"`
}

func printWindowsJSON(w io.Writer, results []*collector.WindowResult, replayed int) error {
	out := struct {
		Replayed int         `json:"replayed_frames"`
		Windows  []windowRow `json:"windows"`
	}{Replayed: replayed, Windows: []windowRow{}}
	for _, w := range results {
		row := windowRow{StartSec: w.Start.Seconds(), EndSec: w.End.Seconds(), Regions: []regionRow{}}
		for _, reg := range w.Result.Regions {
			row.Regions = append(row.Regions, regionRow{
				Class: reg.Class.String(), RankMin: reg.RankMin, RankMax: reg.RankMax,
				Cells: reg.Cells, MeanPerf: reg.MeanPerf, LossMS: float64(reg.LossNS) / 1e6,
			})
		}
		out.Windows = append(out.Windows, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
