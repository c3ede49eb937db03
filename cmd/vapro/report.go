package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vapro"
)

// reportFlags are the output flags the run mode and `vapro analyze
// -journal DIR` share.
type reportFlags struct {
	diagnose            *bool
	html, png, svg, dot *string
}

func addReportFlags(fs *flag.FlagSet) reportFlags {
	return reportFlags{
		diagnose: fs.Bool("diagnose", false, "run progressive diagnosis on detected variance"),
		html:     fs.String("html", "", "write a full HTML report to this file"),
		png:      fs.String("png", "", "write the computation heat map as PNG to this file"),
		svg:      fs.String("svg", "", "write the computation heat map as SVG to this file"),
		dot:      fs.String("dot", "", "write the State Transition Graph as Graphviz dot to this file"),
	}
}

// printReport prints a result's report to w: the summary, the overhead
// line when an untraced baseline ran (plain != nil), one heat map per
// class, then every requested file (jsonOut and the reportFlags files),
// and the progressive diagnosis when asked. It stops at the first file
// it cannot write.
func printReport(w io.Writer, res *vapro.Result, plain *vapro.PlainResult, jsonOut string, rf reportFlags) error {
	fmt.Fprintln(w, res.Summary())
	if plain != nil {
		fmt.Fprintf(w, "overhead vs untraced baseline: %.2f%%\n", 100*res.Overhead(plain))
	}
	classes := []vapro.Class{vapro.Computation, vapro.Communication, vapro.IO}
	for _, class := range classes {
		if res.Detection.Maps[class] == nil {
			continue
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, vapro.RenderHeatMap(res, class))
	}
	if err := writeReportFiles(w, res, jsonOut, rf); err != nil {
		return err
	}
	if *rf.diagnose {
		for _, class := range classes {
			rep := res.DiagnoseTop(class, vapro.DefaultDiagnoseOptions())
			if rep == nil || rep.AbnormalFrags == 0 {
				continue
			}
			fmt.Fprintf(w, "\nprogressive diagnosis (%s):\n%s", class, rep.String())
		}
	}
	return nil
}

// writeReportFiles writes every requested file (jsonOut and the
// reportFlags files), naming each on w, and stops at the first it
// cannot write.
func writeReportFiles(w io.Writer, res *vapro.Result, jsonOut string, rf reportFlags) error {
	files := []struct {
		path  string
		write func(io.Writer) error
	}{
		{jsonOut, func(f io.Writer) error {
			data, err := vapro.ReportJSON(res, true)
			if err == nil {
				_, err = f.Write(data)
			}
			return err
		}},
		{*rf.png, func(f io.Writer) error { return vapro.WriteHeatMapPNG(f, res, vapro.Computation) }},
		{*rf.html, func(f io.Writer) error { _, err := io.WriteString(f, vapro.ReportHTML(res)); return err }},
		{*rf.svg, func(f io.Writer) error {
			_, err := io.WriteString(f, vapro.RenderHeatMapSVG(res, vapro.Computation))
			return err
		}},
		{*rf.dot, func(f io.Writer) error { _, err := io.WriteString(f, vapro.RenderSTG(res)); return err }},
	}
	for _, out := range files {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", out.path)
	}
	return nil
}

// writeFile creates path, fills it with write, and reports the first
// error of either step or of closing it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
