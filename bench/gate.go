package main

import (
	"fmt"
	"math"

	"vapro/internal/collector"
	"vapro/internal/detect"
	"vapro/internal/sim"
	"vapro/internal/stg"
)

// The correctness gate. Everything here runs outside every timed
// region, on the server of the first measured epoch.

// coldWindows analyses batches [0, batches) of the stream the way a
// server that had never run incrementally would: a fresh graph per
// shard, a fresh analyzer with DisableIncremental, every window of the
// pool's grid, and (for the tier) a fresh spatial merger. The sharded
// reference is deliberately the *sharded* semantics computed cold:
// planes normalise against their own best member (DESIGN §12), so the
// unsharded analysis of the same fragments differs until global-best
// normalisation lands.
func coldWindows(s *stream, batches int, owner func(rank int) int) []*collector.WindowResult {
	sp := s.sp
	graphs := make([]*stg.Graph, sp.shards)
	for i := range graphs {
		graphs[i] = stg.New()
	}
	for b := 0; b < batches; b++ {
		rank, frags := s.batch(b)
		graphs[owner(rank)].AddBatch(frags)
	}
	copt, _ := sp.options()
	dopt := copt.Detect
	dopt.DisableIncremental = true
	analyzers := make([]*detect.Analyzer, sp.shards)
	for i := range analyzers {
		analyzers[i] = detect.NewAnalyzer()
	}
	merger := detect.NewMerger()

	var maxEnd int64
	for _, g := range graphs {
		if _, e, ok := g.Bounds(); ok && e > maxEnd {
			maxEnd = e
		}
	}
	var out []*collector.WindowResult
	for start := int64(0); start < maxEnd; start += int64(sp.stride()) {
		end := start + int64(sp.period)
		covered := false
		for _, g := range graphs {
			covered = covered || g.Overlaps(start, end)
		}
		if !covered {
			continue
		}
		parts := make([]*detect.Result, sp.shards)
		for i, g := range graphs {
			parts[i] = analyzers[i].RunWindow(g, sp.ranks, dopt, start, end)
		}
		res := parts[0]
		if sp.shards > 1 {
			res, _ = merger.Merge(parts, sp.ranks, owner, dopt)
		}
		out = append(out, &collector.WindowResult{Start: sim.Time(start), End: sim.Time(end), Result: res})
	}
	return out
}

// sameWindows requires two window lists to be bit-identical in every
// heat map (cells by math.Float64bits, stale marks) and region list.
func sameWindows(got, want []*collector.WindowResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d windows, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.End != w.End {
			return fmt.Errorf("window %d spans [%d,%d), reference [%d,%d)", i, g.Start, g.End, w.Start, w.End)
		}
		if err := sameResult(g.Result, w.Result); err != nil {
			return fmt.Errorf("window %d [%d,%d): %w", i, g.Start, g.End, err)
		}
	}
	return nil
}

func sameResult(g, w *detect.Result) error {
	for _, class := range []detect.Class{detect.Computation, detect.Communication, detect.IOClass} {
		if err := sameMap(g.Maps[class], w.Maps[class]); err != nil {
			return fmt.Errorf("%v map: %w", class, err)
		}
	}
	return sameRegions(g.Regions, w.Regions)
}

func sameMap(g, w *detect.HeatMap) error {
	if g == nil || w == nil {
		if g != w {
			return fmt.Errorf("present on one side only")
		}
		return nil
	}
	if g.Ranks != w.Ranks || g.Windows != w.Windows || g.Window != w.Window || g.Origin != w.Origin {
		return fmt.Errorf("geometry %dx%d@%d+%d, reference %dx%d@%d+%d",
			g.Ranks, g.Windows, g.Window, g.Origin, w.Ranks, w.Windows, w.Window, w.Origin)
	}
	for i := range g.Cells {
		if math.Float64bits(g.Cells[i]) != math.Float64bits(w.Cells[i]) {
			return fmt.Errorf("cell (rank %d, col %d) = %v, reference %v",
				i/g.Windows, i%g.Windows, g.Cells[i], w.Cells[i])
		}
	}
	for i := range g.Cells {
		if g.StaleAt(i/g.Windows, i%g.Windows) != w.StaleAt(i/g.Windows, i%g.Windows) {
			return fmt.Errorf("stale mark differs at (rank %d, col %d)", i/g.Windows, i%g.Windows)
		}
	}
	return nil
}

func sameRegions(g, w []detect.Region) error {
	if len(g) != len(w) {
		return fmt.Errorf("%d regions, reference has %d", len(g), len(w))
	}
	for i := range g {
		a, b := &g[i], &w[i]
		if a.Class != b.Class || a.RankMin != b.RankMin || a.RankMax != b.RankMax ||
			a.WinMin != b.WinMin || a.WinMax != b.WinMax || a.Cells != b.Cells ||
			a.LossNS != b.LossNS || len(a.Samples) != len(b.Samples) ||
			math.Float64bits(a.MeanPerf) != math.Float64bits(b.MeanPerf) {
			return fmt.Errorf("region %d is %s, reference %s", i, regionString(a), regionString(b))
		}
	}
	return nil
}

func regionString(r *detect.Region) string {
	return fmt.Sprintf("{%v ranks %d-%d cols %d-%d cells %d perf %v loss %dns samples %d}",
		r.Class, r.RankMin, r.RankMax, r.WinMin, r.WinMax, r.Cells, r.MeanPerf, r.LossNS, len(r.Samples))
}

// sameEvents requires two monitors to have reported the same findings.
func sameEvents(got, want []collector.Event) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.WindowStart != w.WindowStart || g.WindowEnd != w.WindowEnd || g.Stage != w.Stage || g.ArmedAfter != w.ArmedAfter {
			return fmt.Errorf("event %d is [%d,%d) stage %d, reference [%d,%d) stage %d",
				i, g.WindowStart, g.WindowEnd, g.Stage, w.WindowStart, w.WindowEnd, w.Stage)
		}
		if err := sameRegions(g.Regions, w.Regions); err != nil {
			return fmt.Errorf("event %d [%d,%d): %w", i, g.WindowStart, g.WindowEnd, err)
		}
	}
	return nil
}

// checkInjection requires the online events to tell the truth about the
// input: a workload with an injected slowdown must have reported a
// region of the injected class overlapping the injected ranks and
// interval, and one without must have reported nothing.
func checkInjection(s *stream, events []collector.Event) error {
	in := s.sp.inject
	if in == nil {
		if len(events) != 0 {
			return fmt.Errorf("%d events on a stream with no injected variance (first: window [%d,%d) %s)",
				len(events), events[0].WindowStart, events[0].WindowEnd, regionString(&events[0].Regions[0]))
		}
		return nil
	}
	class := detect.ClassOf(in.kind)
	for i := range events {
		ev := &events[i]
		for j := range ev.Regions {
			r := &ev.Regions[j]
			from := int64(ev.WindowStart) + int64(r.WinMin)*int64(s.sp.bucket)
			to := int64(ev.WindowStart) + int64(r.WinMax+1)*int64(s.sp.bucket)
			if r.Class == class && r.RankMin < in.rankHi && r.RankMax >= in.rankLo &&
				from < s.injTo && to > s.injFrom {
				return nil
			}
		}
	}
	return fmt.Errorf("no event reports a %v region over ranks [%d,%d) in virtual [%d,%d) (%d events)",
		class, in.rankLo, in.rankHi, s.injFrom, s.injTo, len(events))
}

// liveWindows asks the running plane for its whole-run window results.
func (st *stack) liveWindows() []*collector.WindowResult {
	if st.tier != nil {
		return st.tier.WindowResults()
	}
	return st.pool.WindowResults()
}

func (st *stack) drainEvents() []collector.Event {
	if st.smon != nil {
		return st.smon.Drain()
	}
	return st.mon.Drain()
}

func (st *stack) ownerFunc() func(int) int {
	if st.tier != nil {
		return st.tier.Owner
	}
	return func(int) int { return 0 }
}

// gate runs the whole check against a stack that has received batches
// [0, batches) of s and nothing else. It returns the events it drained
// so the caller can reuse them (diagnosis timing).
func (st *stack) gate(s *stream, batches int) ([]collector.Event, error) {
	b := st.books()
	if err := b.balanced(); err != nil {
		return nil, fmt.Errorf("books: %w", err)
	}
	if got, want := b.fragments, batches*s.sp.batch; got != want {
		return nil, fmt.Errorf("books: %d fragments resident, %d generated", got, want)
	}
	if err := sameWindows(st.liveWindows(), coldWindows(s, batches, st.ownerFunc())); err != nil {
		return nil, fmt.Errorf("analysis differs from the cold reference: %w", err)
	}
	events := st.drainEvents()
	if err := checkInjection(s, events); err != nil {
		return events, err
	}
	if st.jlog != nil {
		// The journal holds the delivered stream in delivery order, so a
		// fresh batch-mode monitor replaying it must tick through exactly
		// the states the live one did and report the same findings.
		ref, err := st.replayReference()
		if err != nil {
			return events, err
		}
		if err := sameEvents(events, ref); err != nil {
			return events, fmt.Errorf("live events differ from a batch-mode replay of the journal: %w", err)
		}
	}
	return events, nil
}

// replayReference replays the stack's journal into a fresh pool and a
// monitor running the batch analysis path, and returns its events.
func (st *stack) replayReference() ([]collector.Event, error) {
	copt, mopt := st.sp.options()
	copt.Detect.DisableIncremental = true
	mopt.Detect.DisableIncremental = true
	pool := collector.NewPool(st.sp.ranks, copt)
	defer pool.Close()
	mon := collector.NewMonitor(pool, mopt)
	if _, err := collector.ReplayJournal(st.jlog, mon); err != nil {
		return nil, fmt.Errorf("replay reference: %w", err)
	}
	return mon.Drain(), nil
}
