package exp

import (
	"fmt"
	"io"

	"vapro/internal/apps"
	"vapro/internal/core"
	"vapro/internal/detect"
	"vapro/internal/heatmap"
	"vapro/internal/noise"
	"vapro/internal/sim"
	"vapro/internal/stats"
	"vapro/internal/trace"
)

// Fig18Result is the RAxML IO-variance case study (Figures 18-19): the
// first process merges many small files on the shared distributed file
// system; bursts of FS contention make its IO performance collapse; a
// client-side file buffer fixes it.
type Fig18Result struct {
	Ranks int
	// Rank 0 does the IO; its mean normalized IO performance vs 1.0.
	Rank0IOPerf float64
	// Computation and communication remain stable (paper: "Vapro
	// suggests that both computation and communication performance are
	// stable").
	CompPerf, CommPerf float64
	// Per-IO time series of the most varied fixed-workload IO cluster
	// (Figure 19's read/write scatter), in seconds.
	ReadTimes, WriteTimes []float64
	HeatMap               string

	// Figure 19 fix: repeated executions with and without the buffer.
	UnbufferedTimes, BufferedTimes []float64
	Speedup                        float64 // paper: 17.5%
	StdevReduction                 float64 // paper: 73.5%
}

func init() {
	register(Experiment{
		ID:    "fig18",
		Title: "RAxML IO variance on the shared FS; file-buffer fix (Figures 18-19)",
		Run: func(w io.Writer, scale Scale) (any, error) {
			return Fig18(w, scale), nil
		},
	})
}

// fig18Noise builds a bursty shared-FS interference schedule: random
// heavy-IO tenants come and go, which is what makes consecutive RAxML
// executions range from 41 to 68 seconds in the paper.
func fig18Noise(seed uint64, horizon sim.Duration) *noise.Schedule {
	rng := sim.NewRNG(seed)
	sch := noise.NewSchedule()
	t := sim.Time(0)
	for t < sim.Time(horizon) {
		gap := sim.Duration((0.1 + 0.5*rng.Float64()) * float64(sim.Second))
		dur := sim.Duration((0.2 + 0.8*rng.Float64()) * float64(sim.Second))
		slow := 2 + 8*rng.Float64()
		sch.Add(noise.IOInterference(t.Add(gap), t.Add(gap+dur), slow))
		t = t.Add(gap + dur)
	}
	return sch
}

// Fig18 runs RAxML under bursty shared-FS noise, shows the IO heat map
// (rank 0 visibly degraded, computation stable), extracts the per-IO
// time series, and then measures the file-buffer fix across repeated
// executions.
func Fig18(w io.Writer, scale Scale) *Fig18Result {
	ranks, iters, runs := 64, 12, 10
	if scale == Full {
		ranks, iters, runs = 512, 12, 10
	}
	opt := core.DefaultOptions()
	opt.Ranks = ranks
	opt.Collector.Detect.Window = 200 * sim.Millisecond
	opt.Noise = fig18Noise(11, 60*sim.Second)
	res := core.RunTraced(apps.NewRAxML(iters), opt)

	r := &Fig18Result{Ranks: ranks}
	mean := func(class detect.Class, rank int) float64 {
		var s, n float64
		for _, sm := range res.Detection.Samples[class] {
			if rank >= 0 && sm.Rank != rank {
				continue
			}
			wgt := float64(sm.Elapsed)
			s += sm.Perf * wgt
			n += wgt
		}
		if n == 0 {
			return 1
		}
		return s / n
	}
	r.Rank0IOPerf = mean(detect.IOClass, 0)
	r.CompPerf = mean(detect.Computation, -1)
	r.CommPerf = mean(detect.Communication, -1)
	if h := res.Detection.Maps[detect.IOClass]; h != nil {
		r.HeatMap = heatmap.Render(h, heatmap.Options{MaxRows: 16, MaxCols: 64, ShowLegend: true}) +
			heatmap.RenderRegions(h, res.Detection.Regions)
	}

	// Figure 19: the per-operation series of the most varied IO
	// clusters (reads of the small partition files, checkpoint writes).
	for _, v := range res.Graph.Vertices() {
		frags := v.Log().Slice()
		for i := range frags {
			f := &frags[i]
			if f.Rank != 0 {
				continue
			}
			switch f.Args.Op {
			case trace.OpRead:
				r.ReadTimes = append(r.ReadTimes, float64(f.Elapsed)/1e9)
			case trace.OpWrite:
				r.WriteTimes = append(r.WriteTimes, float64(f.Elapsed)/1e9)
			}
		}
	}

	// The fix: client-side file buffer absorbs the small-file reads.
	for i := 0; i < runs; i++ {
		mk := func(buffered bool) float64 {
			o := core.DefaultOptions()
			o.Ranks = ranks
			o.Seed = uint64(300 + i)
			o.Noise = fig18Noise(uint64(500+i), 60*sim.Second)
			o.BufferedIO = buffered
			return core.RunPlain(apps.NewRAxML(iters), o).Makespan.Seconds()
		}
		r.UnbufferedTimes = append(r.UnbufferedTimes, mk(false))
		r.BufferedTimes = append(r.BufferedTimes, mk(true))
	}
	mu, mb := stats.Mean(r.UnbufferedTimes), stats.Mean(r.BufferedTimes)
	if mb > 0 {
		r.Speedup = mu/mb - 1
	}
	su, sb := stats.Stddev(r.UnbufferedTimes), stats.Stddev(r.BufferedTimes)
	if su > 0 {
		r.StdevReduction = 1 - sb/su
	}

	e, _ := Get("fig18")
	header(w, e)
	fmt.Fprint(w, r.HeatMap)
	fmt.Fprintf(w, "mean normalized perf — rank 0 IO: %.2f; computation: %.2f; communication: %.2f\n",
		r.Rank0IOPerf, r.CompPerf, r.CommPerf)
	fmt.Fprintln(w, "(paper: computation stable and rank-0 IO far below the rest; low communication")
	fmt.Fprintln(w, " perf here is the waiting that the rank-0 IO propagates through the broadcast,")
	fmt.Fprintln(w, " the same dependence effect Figure 14 shows — the IO map names the root cause)")

	show := func(name string, ts []float64) {
		n := len(ts)
		if n == 0 {
			fmt.Fprintf(w, "%s times: none\n", name)
			return
		}
		stride := n / 16
		if stride < 1 {
			stride = 1
		}
		fmt.Fprintf(w, "%s times (s), every %d-th of %d:", name, stride, n)
		for i := 0; i < n; i += stride {
			fmt.Fprintf(w, " %.4f", ts[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n--- fig19: consecutive fixed-workload IO operations on rank 0 ---")
	show("read", r.ReadTimes)
	show("write", r.WriteTimes)
	fmt.Fprintf(w, "\nfile-buffer fix over %d runs: mean %.2fs -> %.2fs (%.1f%% speedup, paper: 17.5%%); stdev %.3f -> %.3f (%.1f%% reduction, paper: 73.5%%)\n",
		len(r.UnbufferedTimes), stats.Mean(r.UnbufferedTimes), stats.Mean(r.BufferedTimes),
		100*r.Speedup, stats.Stddev(r.UnbufferedTimes), stats.Stddev(r.BufferedTimes), 100*r.StdevReduction)
	return r
}
