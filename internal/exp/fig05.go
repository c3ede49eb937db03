package exp

import (
	"fmt"
	"io"
	"sort"

	"vapro/internal/apps"
	"vapro/internal/cluster"
	"vapro/internal/core"
	"vapro/internal/noise"
	"vapro/internal/sim"
	"vapro/internal/stats"
	"vapro/internal/trace"
)

// Fig05Result verifies the proxy-metric observation of Figure 5:
// TOT_INS of fixed-workload fragments stays stable under noise while
// TSC (elapsed time) is perturbed.
type Fig05Result struct {
	// Relative coefficient of variation of TOT_INS and TSC over the
	// fragments of one fixed-workload cluster, per noise kind.
	ComputeNoiseInsCV float64
	ComputeNoiseTscCV float64
	MemNoiseInsCV     float64
	MemNoiseTscCV     float64
}

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "TOT_INS is stable under noise, TSC is not (Figure 5)",
		Run: func(w io.Writer, scale Scale) (any, error) {
			return Fig05(w, scale), nil
		},
	})
}

// fig05series extracts the TOT_INS and TSC sequences of the largest
// fixed-workload computation cluster of rank 0 (one workload class on
// one STG edge, exactly what Figure 5 plots).
func fig05series(res *core.Result) (ins, tsc []float64) {
	var best []trace.Fragment
	for _, e := range res.Graph.Edges() {
		var r0 []trace.Fragment
		for _, f := range e.Log().Slice() {
			if f.Rank == 0 && f.Counters.TotIns > 0 {
				r0 = append(r0, f)
			}
		}
		if len(r0) < 2 {
			continue
		}
		cl := cluster.Run(trace.LogOf(r0), cluster.DefaultOptions())
		for ci, members := range cl.Groups() {
			if cl.Clusters[ci].Size > len(best) {
				sub := make([]trace.Fragment, 0, len(members))
				for _, m := range members {
					sub = append(sub, r0[m])
				}
				best = sub
			}
		}
	}
	sort.Slice(best, func(i, j int) bool { return best[i].Start < best[j].Start })
	for _, f := range best {
		ins = append(ins, float64(f.Counters.TotIns))
		tsc = append(tsc, float64(f.Elapsed))
	}
	return ins, tsc
}

func cv(xs []float64) float64 {
	m := stats.Mean(xs)
	if m == 0 {
		return 0
	}
	return stats.Stddev(xs) / m
}

// Fig05 runs 16-rank CG twice — once under CPU contention, once under
// memory contention — and compares the stability of TOT_INS vs TSC for
// one fixed-workload fragment cluster.
func Fig05(w io.Writer, scale Scale) *Fig05Result {
	outer := 8
	if scale == Full {
		outer = 20
	}
	run := func(ev noise.Event) (ins, tsc []float64) {
		sch := noise.NewSchedule()
		sch.Add(ev)
		opt := core.DefaultOptions()
		opt.Ranks = 16
		opt.Noise = sch
		res := core.RunTraced(apps.NewCG(outer), opt)
		return fig05series(res)
	}

	// Noise active over part of the iteration phase only, so the
	// series shows both quiet and perturbed executions like the
	// figure. The iteration phase sits in the back half of the run
	// (after the rank-dependent initialization).
	probe := core.RunPlain(apps.NewCG(outer), func() core.Options {
		o := core.DefaultOptions()
		o.Ranks = 16
		return o
	}())
	start := sim.Time(float64(probe.Makespan) * 0.70)
	end := sim.Time(float64(probe.Makespan) * 0.92)
	insC, tscC := run(noise.CPUContention(0, 0, start, end, 0.55))
	insM, tscM := run(noise.MemContention(0, start, end, 3.0))

	r := &Fig05Result{
		ComputeNoiseInsCV: cv(insC),
		ComputeNoiseTscCV: cv(tscC),
		MemNoiseInsCV:     cv(insM),
		MemNoiseTscCV:     cv(tscM),
	}

	e, _ := Get("fig5")
	header(w, e)
	show := func(name string, ins, tsc []float64) {
		n := len(ins)
		if n > 20 {
			n = 20
		}
		fmt.Fprintf(w, "%s noise — first %d executions of a fixed-workload fragment (rank 0):\n", name, n)
		fmt.Fprint(w, "  TOT_INS:")
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, " %8.0f", ins[i])
		}
		fmt.Fprint(w, "\n  TSC(ns):")
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, " %8.0f", tsc[i])
		}
		fmt.Fprintln(w)
	}
	show("computation", insC, tscC)
	show("memory", insM, tscM)
	fmt.Fprintf(w, "coefficient of variation — compute noise: TOT_INS %.4f vs TSC %.4f; memory noise: TOT_INS %.4f vs TSC %.4f\n",
		r.ComputeNoiseInsCV, r.ComputeNoiseTscCV, r.MemNoiseInsCV, r.MemNoiseTscCV)
	fmt.Fprintln(w, "(paper: TOT_INS flat, TSC visibly perturbed — TOT_INS is the workload proxy)")
	return r
}
