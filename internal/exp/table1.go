package exp

import (
	"fmt"
	"io"

	"vapro/internal/apps"
	"vapro/internal/core"
	"vapro/internal/interpose"
	"vapro/internal/vsensor"
)

// Table1Row is one application's overhead and coverage comparison.
type Table1Row struct {
	App      string
	Threaded bool
	// Overheads are fractions (0.01 = 1%). VSOverhead is NaN-like -1
	// when vSensor cannot run the app.
	VSOverhead float64
	CAOverhead float64
	CFOverhead float64
	// Coverages are fractions; VSCoverage is -1 when unsupported.
	VSCoverage float64
	CACoverage float64
	CFCoverage float64
	// StorageKBps is the fragment stream volume per rank (§6.2 text).
	StorageKBps float64
	Ranks       int
}

// Table1Result aggregates the comparison.
type Table1Result struct {
	Rows []Table1Row
	// Means over multi-process apps where vSensor runs (as the paper
	// averages them).
	MeanVSCoverage float64
	MeanCACoverage float64
	MeanCFCoverage float64
	MeanVSOverhead float64
	MeanCAOverhead float64
	MeanCFOverhead float64
	// Threaded means (CF only).
	MeanThreadedCF       float64
	MeanThreadedOverhead float64
	ServersUsed          int
}

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "overhead and detection coverage: vSensor vs context-aware vs context-free (Table 1)",
		Run: func(w io.Writer, scale Scale) (any, error) {
			return Table1(w, scale), nil
		},
	})
}

// table1Apps lists the evaluated applications in the paper's order.
var table1MP = []string{"AMG", "CESM", "BT", "CG", "EP", "FT", "LU", "MG", "SP"}
var table1MT = []string{"BERT", "PageRank", "WordCount", "FFT", "blackscholes", "canneal", "ferret", "swaptions", "vips"}

// Table1 measures, for every application, the runtime overhead and
// detection coverage of Vapro with context-aware and context-free STGs
// and of the vSensor baseline. Rank counts are scaled down from the
// paper's 1024/2048 (Small: 32, Full: 256) so the experiment runs on a
// laptop; the comparison shape is scale-independent because overhead
// and coverage are per-process properties.
func Table1(w io.Writer, scale Scale) *Table1Result {
	mpRanks := 32
	if scale == Full {
		mpRanks = 256
	}
	res := &Table1Result{}

	measure := func(name string, ranks int) Table1Row {
		mk := func() apps.App {
			a, err := apps.New(name)
			if err != nil {
				panic(err)
			}
			return a
		}
		info := mk().Info()
		opt := core.DefaultOptions()
		opt.Ranks = ranks
		if info.Threaded {
			opt.Ranks = 16
		}
		plain := core.RunPlain(mk(), opt)

		cf := core.RunTraced(mk(), opt)

		st := cf.Pool.Stats(cf.Makespan)
		row := Table1Row{
			App:         name,
			Threaded:    info.Threaded,
			Ranks:       opt.Ranks,
			CFOverhead:  cf.Overhead(plain),
			CFCoverage:  cf.Detection.OverallCoverage,
			StorageKBps: st.BytesPerRankSecond / 1024,
		}
		res.ServersUsed = st.Servers

		if !info.Threaded {
			optCA := opt
			optCA.Interpose.Mode = interpose.ContextAware
			ca := core.RunTraced(mk(), optCA)
			row.CAOverhead = ca.Overhead(plain)
			row.CACoverage = ca.Detection.OverallCoverage

			vs := vsensor.Analyze(cf.Graph, cf.Ranks, vsensor.Capability{
				SourceAvailable: info.SourceAvailable,
				Threaded:        info.Threaded,
				HugeCodebase:    info.HugeCodebase,
			}, opt.Collector.Detect)
			if vs.Supported {
				row.VSCoverage = vs.Coverage
				row.VSOverhead = vsensor.Overhead(cf.Events/cf.Ranks, plain.Makespan)
			} else {
				row.VSCoverage = -1
				row.VSOverhead = -1
			}
		}
		return row
	}

	for _, name := range table1MP {
		res.Rows = append(res.Rows, measure(name, mpRanks))
	}
	for _, name := range table1MT {
		res.Rows = append(res.Rows, measure(name, 16))
	}

	var nMP, nVS, nMT float64
	for _, r := range res.Rows {
		if r.Threaded {
			nMT++
			res.MeanThreadedCF += r.CFCoverage
			res.MeanThreadedOverhead += r.CFOverhead
			continue
		}
		nMP++
		res.MeanCACoverage += r.CACoverage
		res.MeanCFCoverage += r.CFCoverage
		res.MeanCAOverhead += r.CAOverhead
		res.MeanCFOverhead += r.CFOverhead
		if r.VSCoverage >= 0 {
			nVS++
			res.MeanVSCoverage += r.VSCoverage
			res.MeanVSOverhead += r.VSOverhead
		}
	}
	if nMP > 0 {
		res.MeanCACoverage /= nMP
		res.MeanCFCoverage /= nMP
		res.MeanCAOverhead /= nMP
		res.MeanCFOverhead /= nMP
	}
	if nVS > 0 {
		res.MeanVSCoverage /= nVS
		res.MeanVSOverhead /= nVS
	}
	if nMT > 0 {
		res.MeanThreadedCF /= nMT
		res.MeanThreadedOverhead /= nMT
	}

	e, _ := Get("table1")
	header(w, e)
	fmt.Fprintf(w, "multi-process apps at %d ranks (paper: 1024/2048); one server per 256 clients\n", mpRanks)
	fmt.Fprintf(w, "%-12s | %8s %8s %8s | %8s %8s %8s | %9s\n",
		"app", "ov vS%", "ov CA%", "ov CF%", "cov vS%", "cov CA%", "cov CF%", "KB/s/rank")
	pct := func(v float64) string {
		if v < 0 {
			return "     N/A"
		}
		return fmt.Sprintf("%8.2f", 100*v)
	}
	for _, r := range res.Rows {
		if r.Threaded {
			continue
		}
		fmt.Fprintf(w, "%-12s | %s %s %s | %s %s %s | %9.1f\n",
			r.App, pct(r.VSOverhead), pct(r.CAOverhead), pct(r.CFOverhead),
			pct(r.VSCoverage), pct(r.CACoverage), pct(r.CFCoverage), r.StorageKBps)
	}
	fmt.Fprintf(w, "%-12s | %s %s %s | %s %s %s |\n", "mean",
		pct(res.MeanVSOverhead), pct(res.MeanCAOverhead), pct(res.MeanCFOverhead),
		pct(res.MeanVSCoverage), pct(res.MeanCACoverage), pct(res.MeanCFCoverage))
	fmt.Fprintf(w, "\nmulti-threaded apps, 16 threads (vSensor unsupported):\n")
	fmt.Fprintf(w, "%-12s | %8s | %8s | %9s\n", "app", "ov CF%", "cov CF%", "KB/s/rank")
	for _, r := range res.Rows {
		if !r.Threaded {
			continue
		}
		fmt.Fprintf(w, "%-12s | %s | %s | %9.1f\n", r.App, pct(r.CFOverhead), pct(r.CFCoverage), r.StorageKBps)
	}
	fmt.Fprintf(w, "%-12s | %s | %s |\n", "mean", pct(res.MeanThreadedOverhead), pct(res.MeanThreadedCF))
	fmt.Fprintln(w, "\nexpected shape (paper): CF coverage > CA coverage > vSensor coverage;")
	fmt.Fprintln(w, "CA overhead > CF overhead; vSensor N/A on CESM; MG collapses under CA.")
	return res
}
