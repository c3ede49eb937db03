package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"vapro/internal/collector"
	"vapro/internal/detect"
	"vapro/internal/heatmap"
	"vapro/internal/sim"
)

const phaseTimeout = 120 * time.Second

// epochKind is what one closed-loop epoch (or journal replay) is for.
type epochKind int

const (
	warmUp      epochKind = iota // discarded: the process is still growing its heap
	measured                     // counts towards the median
	tracedEpoch                  // spans recorded; its rate against the measured ones is the tracing overhead
)

// plan is a run's repetition counts. A normal run sets up five times
// (setup_s is the median) and measures three epochs after a warm-up; a
// traced run puts its traced epoch between two measured ones. The
// tier-1 smoke does each thing once and paces four times faster — it
// checks plumbing and the gate, its numbers mean nothing.
func (cfg config) plan() (setups int, epochs []epochKind, paceDiv int) {
	switch {
	case cfg.smoke && cfg.trace:
		return 1, []epochKind{measured, tracedEpoch}, 4
	case cfg.smoke:
		return 1, []epochKind{measured}, 4
	case cfg.trace:
		return 5, []epochKind{warmUp, measured, tracedEpoch, measured}, 1
	}
	return 5, []epochKind{warmUp, measured, measured, measured}, 1
}

var (
	processStart = time.Now()
	setupStarted atomic.Bool
)

// setupClock starts the clock of one set-up. The first set-up of the
// process is timed from process start, so runtime and package
// initialisation count; later ones from now.
func setupClock() time.Time {
	if setupStarted.CompareAndSwap(false, true) {
		return processStart
	}
	return time.Now()
}

// config is one invocation's knobs.
type config struct {
	seed    uint64
	seconds int
	scale   float64
	trace   bool
	smoke   bool // see plan
	outDir  string
	logf    func(format string, args ...any)
}

// rtSampler polls the cheap runtime gauges while one workload runs and
// reports the process counters as deltas from its start, so a suite run
// does not charge a workload with its predecessors' collections.
type rtSampler struct {
	stop, done chan struct{}
	mu         sync.Mutex
	heapPeak   uint64
	goroutines int
	gcCPU, cpu float64 // cumulative cpu-seconds at start
	numGC      uint32
}

func readCPU() (gc, total float64) {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(sample)
	return sample[0].Value.Float64(), sample[1].Value.Float64()
}

func startSampler() *rtSampler {
	s := &rtSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.gcCPU, s.cpu = readCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.numGC = ms.NumGC
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				s.mu.Lock()
				if v := sample[0].Value.Uint64(); v > s.heapPeak {
					s.heapPeak = v
				}
				if n := runtime.NumGoroutine(); n > s.goroutines {
					s.goroutines = n
				}
				s.mu.Unlock()
			}
		}
	}()
	return s
}

func (s *rtSampler) finish(r *result) {
	close(s.stop)
	<-s.done
	gc, total := readCPU()
	if total > s.cpu {
		r.set("runtime.gc_cpu_share", (gc-s.gcCPU)/(total-s.cpu))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// PauseNs is a ring of the last 256 collections, newest at
	// (NumGC+255)%256; only this workload's count.
	n := ms.NumGC - s.numGC
	if n > uint32(len(ms.PauseNs)) {
		n = uint32(len(ms.PauseNs))
	}
	var pause uint64
	for i := uint32(0); i < n; i++ {
		if p := ms.PauseNs[(ms.NumGC+255-i)%256]; p > pause {
			pause = p
		}
	}
	r.set("runtime.gc_pause_ms_max", float64(pause)/1e6)
	r.set("runtime.num_gc", float64(ms.NumGC-s.numGC))
	r.set("runtime.heap_peak_mb", float64(s.heapPeak)/(1<<20))
	r.set("runtime.goroutines_peak", float64(s.goroutines))
}

// liveHeap is HeapAlloc after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// phase is one driven stretch of a server's life, as seen from both
// ends.
type phase struct {
	from, to  int
	drive     driveResult
	calls     []sinkCall
	tickEnd   []int64
	wallNS    int64 // first flush to last sink return
	drainWait time.Duration
}

// runPhase drives batches [from, to) (closed loop when interval is 0)
// and waits until the probe has seen every one of them delivered.
func (st *stack) runPhase(s *stream, from, to int, interval time.Duration, traced bool) (*phase, error) {
	st.rec.expect((to - from) * s.sp.batch)
	ph := &phase{from: from, to: to}
	ph.drive = st.drive(s, from, to, interval, traced)
	if err := st.rec.wait(phaseTimeout); err != nil {
		return nil, err
	}
	ph.drainWait, _ = st.drain(10 * time.Second)
	ph.calls, ph.tickEnd = st.rec.snapshot()
	var end int64
	for _, c := range ph.calls {
		if c.End > end {
			end = c.End
		}
	}
	ph.wallNS = end - ph.drive.start
	return ph, nil
}

func (ph *phase) fragPerS() float64 {
	return float64(ph.drive.frags) / (float64(ph.wallNS) / 1e9)
}

// spans turns a traced phase into its span list: gen.batch ⊃
// client.consume from the generators, sink.deliver from the probe,
// parented on the batch that caused it.
func (ph *phase) spans(ranks int) []span {
	out := append([]span(nil), ph.drive.spans...)
	batchID := make(map[[2]int]int, len(out)/2)
	for i := range out {
		out[i].ID = i + 1
		if out[i].Name == "gen.batch" {
			batchID[[2]int{out[i].Rank, out[i].Seq}] = out[i].ID
		} else {
			out[i].Parent = batchID[[2]int{out[i].Rank, out[i].Seq}]
		}
	}
	next := make([]int, ranks)
	for r := range next {
		next[r] = ph.from / ranks
	}
	for _, c := range ph.calls {
		r := int(c.Rank)
		out = append(out, span{
			ID: len(out) + 1, Parent: batchID[[2]int{r, next[r]}], Name: "sink.deliver",
			Start: c.Start, End: c.End, Rank: r, Seq: next[r], Windows: int(c.Windows),
		})
		next[r]++
	}
	return out
}

// rangeQueries runs n seeded historical queries and renders every
// result, timing both. Every query spans two periods from a seeded
// start, so each touches the same number of windows and the median does
// not depend on the mix the seed happened to draw.
func rangeQueries(pool *collector.Pool, s *stream, batches, n int, seed uint64) (queryMS, renderMS []float64, empty int) {
	sp := s.sp
	rng := sim.NewRNG(seed ^ 0x51756572)
	extent := int64(batches/sp.ranks) * int64(sp.batch) * int64(sim.Millisecond)
	for i := 0; i < n; i++ {
		from := int64(rng.Intn(int(extent - 2*int64(sp.period))))
		to := from + 2*int64(sp.period)
		t0 := time.Now()
		res := pool.WindowResultsRange(from, to)
		t1 := time.Now()
		for _, w := range res {
			for _, class := range []detect.Class{detect.Computation, detect.Communication, detect.IOClass} {
				_ = heatmap.Render(w.Result.Maps[class], heatmap.DefaultOptions())
			}
		}
		t2 := time.Now()
		if len(res) == 0 {
			empty++
		}
		queryMS = append(queryMS, float64(t1.Sub(t0))/1e6)
		renderMS = append(renderMS, float64(t2.Sub(t1))/1e6)
	}
	return queryMS, renderMS, empty
}

// runWorkload measures one workload and never returns a nil result: on
// an error the result carries it, Correct is false and every attempted
// operation counts as failed.
func runWorkload(sp *spec, cfg config) *result {
	need := 2
	if sp.shards > need {
		need = sp.shards
	}
	refused := func(why string) *result {
		return &result{Workload: sp.name, Seed: cfg.seed, Traced: cfg.trace, Attempted: 1, Failed: 1, Metrics: map[string]float64{}, Error: why}
	}
	if n := runtime.GOMAXPROCS(0); need > n {
		return refused(fmt.Sprintf("needs %d generator goroutines and connections, the machine has %d processors", need, n))
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+sp.name+"-")
	if err != nil {
		return refused(err.Error())
	}
	defer os.RemoveAll(tmp)
	sampler := startSampler()
	var r *result
	if sp.restart {
		r, err = runRestart(sp, cfg, tmp)
	} else {
		r, err = runStreaming(sp, cfg, tmp)
	}
	sampler.finish(r)
	if err != nil {
		r.Error = err.Error()
		r.Correct = false
		if r.Attempted == 0 {
			r.Attempted = 1
		}
		r.Failed = r.Attempted
	} else {
		r.Correct = r.Failed == 0
	}
	r.set("collector.lost_batch_share", float64(r.Failed)/float64(r.Attempted))
	return r
}

func removeJournal(tmp string) { _ = os.RemoveAll(filepath.Join(tmp, "journal")) }

// runStreaming is the shape of the three streaming workloads: set-up,
// closed-loop epochs on fresh servers (heap and gate on the first
// measured one), then one open-loop phase on another fresh server.
func runStreaming(sp *spec, cfg config, tmp string) (*result, error) {
	sz := sp.size(cfg.seconds, cfg.scale)
	rounds := sz.satRounds
	if sz.pacedRounds > rounds {
		rounds = sz.pacedRounds
	}
	satBatches, pacedBatches := sz.satRounds*sp.ranks, sz.pacedRounds*sp.ranks

	// Set-up, several times; the last one's stream and server are used.
	setupReps, epochs, paceDiv := cfg.plan()
	var s *stream
	var st *stack
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := setupClock()
		s = generate(sp, cfg.seed, rounds)
		var err error
		if st, err = boot(sp, tmp, satBatches); err != nil {
			return newResult(sp, cfg, s, sz), err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			st.close()
			removeJournal(tmp)
		}
	}
	r := newResult(sp, cfg, s, sz)
	r.set("setup_s", r.dist("setup_s", setups).P50)
	cfg.logf("%s", s)

	// Closed loop, every epoch on a fresh server. The first measured
	// epoch's server also answers the heap measurement and the gate
	// before it is torn down.
	tf := &traceFile{Workload: sp.name, Seed: cfg.seed, Phases: map[string][]span{}}
	var rates []float64
	var tracedRate, satBusy float64
	for e, kind := range epochs {
		if st == nil {
			var err error
			if st, err = boot(sp, tmp, satBatches); err != nil {
				return r, err
			}
		}
		first := kind == measured && len(rates) == 0
		var heapBase uint64
		if first {
			heapBase = liveHeap()
		}
		ph, err := st.runPhase(s, 0, satBatches, 0, kind == tracedEpoch)
		if err != nil {
			st.close()
			return r, fmt.Errorf("sat epoch %d: %w", e, err)
		}
		cfg.logf("  sat epoch %d: %.0f frag/s over %d fragments%s", e, ph.fragPerS(), ph.drive.frags,
			map[epochKind]string{warmUp: " (warm-up)", tracedEpoch: " (traced)"}[kind])
		if kind != warmUp {
			r.Attempted += uint64(ph.drive.batches)
			r.Failed += st.books().failed()
		}
		switch kind {
		case tracedEpoch:
			tracedRate = ph.fragPerS()
			tf.Phases["sat"] = ph.spans(sp.ranks)
		case measured:
			rates = append(rates, ph.fragPerS())
		}
		if first {
			satBusy = float64(busyUnion(ph.calls)) / float64(ph.drive.frags)
			r.set("live_heap_bytes_per_frag", float64(liveHeap()-heapBase)/float64(ph.drive.frags))
			t0 := time.Now()
			_, gerr := st.gate(s, satBatches)
			cfg.logf("  gate: %v in %.2fs", errString(gerr), time.Since(t0).Seconds())
			if gerr != nil {
				st.close()
				return r, fmt.Errorf("correctness gate: %w", gerr)
			}
		}
		st.close()
		st = nil
		removeJournal(tmp)
		debug.FreeOSMemory()
	}
	r.set("ingest_frag_per_s", r.dist("ingest_frag_per_s", rates).P50)
	if tracedRate > 0 {
		mean := 0.0
		for _, v := range rates {
			mean += v / float64(len(rates))
		}
		r.set("ladder.trace_overhead_ratio", tracedRate/mean)
	}

	// Open loop on a fresh server.
	st, err := boot(sp, tmp, pacedBatches)
	if err != nil {
		return r, err
	}
	defer func() { st.close(); removeJournal(tmp) }()
	ph, err := st.runPhase(s, 0, pacedBatches, sp.pacedInterval()/time.Duration(paceDiv), cfg.trace)
	if err != nil {
		return r, fmt.Errorf("paced: %w", err)
	}
	r.Attempted += uint64(ph.drive.batches)
	r.Failed += st.books().failed()
	if want := s.windowsClosedBy(pacedBatches); len(ph.tickEnd) != want {
		return r, fmt.Errorf("paced: %d windows analysed, the stream closes %d", len(ph.tickEnd), want)
	}
	events := st.drainEvents()
	if s.injectionWithin(pacedBatches) {
		if err := checkInjection(s, events); err != nil {
			return r, fmt.Errorf("paced: %w", err)
		}
	}
	reportPaced(r, s, st, ph, 0, events)
	if st.mon != nil {
		diagnoseEvents(r, st.mon, events)
	}
	if cfg.trace {
		tf.Phases["paced"] = ph.spans(sp.ranks)
		// The ladder runs alone: the paced server's resident set would
		// otherwise sit in every collection the ladder triggers.
		st.close()
		l, err := warmLadder(s, ladderBatches(sp, cfg.scale, s.batches()), tmp)
		if err != nil {
			return r, fmt.Errorf("ladder: %w", err)
		}
		reportLadder(r, l, satBusy)
		tf.Phases["ladder"] = l.spans
		if err := writeTrace(cfg, sp.name, tf); err != nil {
			return r, err
		}
	}
	return r, nil
}

// warmLadder runs the ladder twice, collects the first pass's garbage,
// and keeps the second pass: the first grows the heap to the size the
// job needs, so the second measures the layers and not the kernel
// mapping fresh pages under them. On this VM a first-touched page costs
// tens of microseconds; a cold pass read two to three times higher on
// the copy-heavy layers, and differently after a suite's earlier
// workloads than in a fresh process.
func warmLadder(s *stream, batches int, tmp string) (*ladderResult, error) {
	if _, err := runLadder(s, batches, tmp); err != nil {
		return nil, err
	}
	runtime.GC()
	return runLadder(s, batches, tmp)
}

// ladderBatches is how many batches of the stream the ladder replays.
func ladderBatches(sp *spec, scale float64, have int) int {
	n := int(ladderFrags*scale) / sp.batch
	if floor := sp.minRounds() * sp.ranks; n < floor {
		n = floor
	}
	if n > have {
		n = have
	}
	return n
}

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v >= 5 {
		return v
	}
	return 5
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
