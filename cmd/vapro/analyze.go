package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"vapro"
	"vapro/internal/collector"
	"vapro/internal/sim"
)

// analyzeUsage is printed, with exit status 2, when analyze gets no
// journal or a positional argument.
const analyzeUsage = `usage: vapro analyze -journal DIR [-from S] [-to S] [-ranks N] [-json]
                     [-diagnose] [-html F] [-png F] [-svg F] [-dot F]`

// analyzeMain re-runs the analysis offline over a delivery journal:
// what `vapro -record DIR` or `vapro serve -journal` wrote
// (vapro.AnalyzeJournal). It prints the run mode's
// report (printReport), or with -json the JSON report and the report
// files; with -from or -to it adds the analysis windows that overlap
// [from, to) (with -json, prints them instead). It returns the process
// exit status.
func analyzeMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vapro analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	journal := fs.String("journal", "", "journal directory written by vapro -record or vapro serve -journal")
	from := fs.Float64("from", 0, "print the windows from this many seconds of virtual time")
	to := fs.Float64("to", 0, "print the windows up to this many seconds of virtual time (0 = end of data)")
	ranks := fs.Int("ranks", 0, "rank-space size, when larger than the journal's")
	jsonOut := fs.Bool("json", false, "emit JSON instead of text: the report, or with -from/-to the window rows")
	rf := addReportFlags(fs)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *journal == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, analyzeUsage)
		return 2
	}
	var window *[2]float64
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "from" || f.Name == "to" {
			window = &[2]float64{*from, *to}
		}
	})
	if err := analyzeJournal(stdout, *journal, *ranks, window, *jsonOut, rf); err != nil {
		fmt.Fprintln(stderr, "vapro analyze:", err)
		return 1
	}
	return 0
}

// analyzeJournal replays the journal in dir and prints its report; with
// a window range {from, to} in seconds, the window grid — anchored at
// zero like the live one, so a range query returns the rows the live
// server's WindowResults would — filtered to the windows overlapping
// [from, to).
func analyzeJournal(w io.Writer, dir string, ranks int, window *[2]float64, asJSON bool, rf reportFlags) error {
	res, err := vapro.AnalyzeJournal(dir, ranks, vapro.DefaultOptions().Collector.Detect)
	if err != nil {
		return err
	}
	var rows []*collector.WindowResult
	if window != nil {
		rows = res.Pool.WindowResultsRange(int64(window[0]*float64(sim.Second)), int64(window[1]*float64(sim.Second)))
	}
	st := res.Pool.Stats(res.Makespan)
	if asJSON {
		// The report files still get written; stdout carries only JSON.
		if err := writeReportFiles(io.Discard, res, "", rf); err != nil {
			return err
		}
		if window != nil {
			return printWindowsJSON(w, rows, st.Batches)
		}
		data, err := vapro.ReportJSON(res, true)
		if err == nil {
			_, err = w.Write(data)
		}
		return err
	}
	if err := printReport(w, res, nil, "", rf); err != nil || window == nil {
		return err
	}
	fmt.Fprintf(w, "\nreplayed %d frame(s) from %d journal(s), %d rank(s), %d window(s)\n",
		st.Batches, st.Servers, res.Ranks, len(rows))
	for _, win := range rows {
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
