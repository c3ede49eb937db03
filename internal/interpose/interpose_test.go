package interpose

import (
	"sync"
	"testing"

	"vapro/internal/mpi"
	"vapro/internal/rt"
	"vapro/internal/sim"
	"vapro/internal/trace"
	"vapro/internal/vfs"
)

// memSink accumulates fragments in memory.
type memSink struct {
	mu    sync.Mutex
	frags []trace.Fragment
}

func (s *memSink) Consume(rank int, frags []trace.Fragment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frags = append(s.frags, frags...)
}

func (s *memSink) byKind(k trace.Kind) []trace.Fragment {
	var out []trace.Fragment
	for _, f := range s.frags {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}

func runTraced(t *testing.T, size int, opt Options, body func(r rt.Runtime)) (*memSink, []sim.Time) {
	t.Helper()
	m := sim.NewMachine(sim.Config{Nodes: 1, CoresPerNode: size, FreqGHz: 2, Seed: 1})
	w := mpi.NewWorld(size, m, sim.IdealEnv{})
	sink := &memSink{}
	clocks := w.Run(func(r *mpi.Rank) {
		tr := NewTraced(r, rt.Config{}, opt, sink, nil)
		body(tr)
		tr.Flush()
	})
	return sink, clocks
}

var wl = sim.Workload{Instructions: 1e6, MemRatio: 0.5, WorkingSet: 1 << 20}

func TestFragmentSplitting(t *testing.T) {
	sink, _ := runTraced(t, 2, DefaultOptions(), func(r rt.Runtime) {
		for i := 0; i < 5; i++ {
			r.Compute(wl)
			r.Barrier()
		}
	})
	comp := sink.byKind(trace.Comp)
	syncs := sink.byKind(trace.Sync)
	if len(comp) != 10 { // 5 per rank
		t.Fatalf("comp fragments: %d, want 10", len(comp))
	}
	if len(syncs) != 10 {
		t.Fatalf("sync fragments: %d", len(syncs))
	}
	for _, f := range comp {
		if f.Counters.TotIns == 0 {
			t.Fatal("compute counters not accumulated")
		}
		if f.Elapsed <= 0 {
			t.Fatal("fragment without elapsed time")
		}
	}
}

// Time conservation: fragments partition the rank's execution.
func TestTimeConservation(t *testing.T) {
	sink, clocks := runTraced(t, 1, DefaultOptions(), func(r rt.Runtime) {
		for i := 0; i < 10; i++ {
			r.Compute(wl)
			r.Barrier()
		}
	})
	var covered int64
	var lastEnd int64
	for _, f := range sink.frags {
		covered += f.Elapsed
		if e := f.Start + f.Elapsed; e > lastEnd {
			lastEnd = e
		}
	}
	total := int64(clocks[0])
	// Fragments cover everything except per-event interception cost.
	if float64(covered) < 0.95*float64(total) {
		t.Fatalf("fragments cover %d of %d ns", covered, total)
	}
	if lastEnd > total {
		t.Fatalf("fragment ends (%d) after the clock (%d)", lastEnd, total)
	}
}

func TestCallSitesDistinguished(t *testing.T) {
	sink, _ := runTraced(t, 2, DefaultOptions(), func(r rt.Runtime) {
		other := (r.Rank() + 1) % 2
		for i := 0; i < 3; i++ {
			q := r.Irecv(other, 1)
			r.Send(other, 1, 100) // site A
			r.Wait(q)
			q = r.Irecv(other, 2)
			r.Send(other, 2, 100) // site B
			r.Wait(q)
		}
	})
	states := map[uint64]bool{}
	for _, f := range sink.byKind(trace.Comm) {
		if f.Args.Op == trace.OpSend {
			states[f.State] = true
		}
	}
	if len(states) != 2 {
		t.Fatalf("two Send call-sites produced %d states", len(states))
	}
}

func TestContextAwareSplitsPaths(t *testing.T) {
	body := func(r rt.Runtime) {
		viaA := func() { r.Barrier() }
		viaB := func() { r.Barrier() }
		for i := 0; i < 3; i++ {
			viaA()
			viaB()
		}
	}
	cf, _ := runTraced(t, 2, DefaultOptions(), body)
	opt := DefaultOptions()
	opt.Mode = ContextAware
	ca, _ := runTraced(t, 2, opt, body)

	countStates := func(s *memSink) int {
		m := map[uint64]bool{}
		for _, f := range s.byKind(trace.Sync) {
			m[f.State] = true
		}
		return len(m)
	}
	// Context-free: one Barrier call-site (inside the closures the
	// call-sites differ — two sites). Context-aware sees at least as
	// many states as context-free.
	if countStates(ca) < countStates(cf) {
		t.Fatalf("context-aware states (%d) fewer than context-free (%d)", countStates(ca), countStates(cf))
	}
}

func TestContextAwareCostsMore(t *testing.T) {
	body := func(r rt.Runtime) {
		for i := 0; i < 50; i++ {
			r.Compute(wl)
			r.Barrier()
		}
	}
	_, cf := runTraced(t, 2, DefaultOptions(), body)
	opt := DefaultOptions()
	opt.Mode = ContextAware
	_, ca := runTraced(t, 2, opt, body)
	if ca[0] <= cf[0] {
		t.Fatalf("context-aware (%v) not slower than context-free (%v)", ca[0], cf[0])
	}
}

func TestStaticFlagPropagation(t *testing.T) {
	sink, _ := runTraced(t, 1, DefaultOptions(), func(r rt.Runtime) {
		st := wl
		st.StaticFixed = true
		r.Compute(st) // all-static segment
		r.Barrier()
		r.Compute(st)
		r.Compute(wl) // mixed segment
		r.Barrier()
		r.Compute(wl) // dynamic segment
		r.Barrier()
	})
	comp := sink.byKind(trace.Comp)
	if len(comp) != 3 {
		t.Fatalf("comp fragments: %d", len(comp))
	}
	if !comp[0].Static || comp[1].Static || comp[2].Static {
		t.Fatalf("static flags: %v %v %v", comp[0].Static, comp[1].Static, comp[2].Static)
	}
}

func TestTruthLabels(t *testing.T) {
	sink, _ := runTraced(t, 1, DefaultOptions(), func(r rt.Runtime) {
		r.Compute(wl)
		r.Barrier()
		r.Compute(wl)
		r.Barrier()
		r.Compute(wl.Scale(2))
		r.Barrier()
	})
	comp := sink.byKind(trace.Comp)
	if comp[0].Truth == 0 {
		t.Fatal("missing truth label")
	}
	if comp[0].Truth != comp[1].Truth {
		t.Fatal("same workload, different truth")
	}
	if comp[0].Truth == comp[2].Truth {
		t.Fatal("different workloads, same truth")
	}
}

func TestProbeBackoff(t *testing.T) {
	opt := DefaultOptions()
	opt.BackoffThreshold = 10 * sim.Millisecond // everything is "too short"
	sink, _ := runTraced(t, 1, opt, func(r rt.Runtime) {
		for i := 0; i < 1000; i++ {
			r.Compute(sim.Workload{Instructions: 1000, MemRatio: 0.1, WorkingSet: 1 << 10})
			r.Probe("hot")
		}
	})
	probes := len(sink.byKind(trace.Probe))
	if probes == 0 {
		t.Fatal("backoff dropped every probe")
	}
	if probes > 200 {
		t.Fatalf("backoff ineffective: %d of 1000 probes recorded", probes)
	}
}

func TestProbeNoBackoffWhenLong(t *testing.T) {
	long := sim.Workload{Instructions: 5e6, MemRatio: 0.5, WorkingSet: 1 << 20}
	sink, _ := runTraced(t, 1, DefaultOptions(), func(r rt.Runtime) {
		for i := 0; i < 20; i++ {
			r.Compute(long) // ~ms, above the 200µs threshold
			r.Probe("cool")
		}
	})
	if probes := len(sink.byKind(trace.Probe)); probes < 18 {
		t.Fatalf("long fragments should keep all probes: %d of 20", probes)
	}
}

func TestSampleShortOps(t *testing.T) {
	opt := DefaultOptions()
	opt.SampleShortOps = sim.Second // everything is short → sampled
	sink, _ := runTraced(t, 2, opt, func(r rt.Runtime) {
		other := (r.Rank() + 1) % 2
		for i := 0; i < 200; i++ {
			q := r.Irecv(other, 0)
			r.Send(other, 0, 10)
			r.Wait(q)
		}
	})
	comm := len(sink.byKind(trace.Comm))
	if comm == 0 {
		t.Fatal("sampling dropped everything")
	}
	if comm >= 1200 { // 3 ops × 200 iters × 2 ranks unsampled
		t.Fatalf("sampling ineffective: %d comm fragments", comm)
	}
}

func TestIOInterception(t *testing.T) {
	fs := vfs.New(sim.IdealEnv{}, 1)
	fs.Create("/in", 4096)
	m := sim.NewMachine(sim.Config{Nodes: 1, CoresPerNode: 1, FreqGHz: 2, Seed: 1})
	w := mpi.NewWorld(1, m, sim.IdealEnv{})
	sink := &memSink{}
	w.Run(func(r *mpi.Rank) {
		tr := NewTraced(r, rt.Config{FS: fs}, DefaultOptions(), sink, nil)
		fd, err := tr.Open("/in", vfs.ReadOnly)
		if err != nil {
			t.Error(err)
			return
		}
		tr.ReadF(fd, 4096)
		tr.WriteF(fd, 0) // nil-safe path
		tr.CloseF(fd)
		tr.Flush()
	})
	io := sink.byKind(trace.IO)
	ops := map[string]int{}
	for _, f := range io {
		ops[f.Args.Op.String()]++
	}
	if ops["open"] != 1 || ops["read"] != 1 || ops["close"] != 1 {
		t.Fatalf("IO ops: %v", ops)
	}
}

func TestArmedSharedHandle(t *testing.T) {
	a := NewArmed(sim.GroupBase)
	if a.Get() != sim.GroupBase {
		t.Fatal("initial groups")
	}
	a.Set(sim.GroupBase | sim.GroupOS)
	if a.Get() != sim.GroupBase|sim.GroupOS {
		t.Fatal("update lost")
	}
	var zero Armed
	if zero.Get() == 0 {
		t.Fatal("zero Armed must fall back to a sane default")
	}
}

func TestNilSinkRecordsNothing(t *testing.T) {
	m := sim.NewMachine(sim.Config{Nodes: 1, CoresPerNode: 1, FreqGHz: 2, Seed: 1})
	w := mpi.NewWorld(1, m, sim.IdealEnv{})
	w.Run(func(r *mpi.Rank) {
		tr := NewTraced(r, rt.Config{}, DefaultOptions(), nil, nil)
		tr.Compute(wl)
		tr.Barrier()
		tr.Flush() // must not panic
		if tr.Events != 1 {
			t.Errorf("events: %d", tr.Events)
		}
	})
}

func TestModeString(t *testing.T) {
	if ContextFree.String() != "context-free" || ContextAware.String() != "context-aware" {
		t.Fatal("mode strings")
	}
}

func TestOpenWithoutFS(t *testing.T) {
	m := sim.NewMachine(sim.Config{Nodes: 1, CoresPerNode: 1, FreqGHz: 2, Seed: 1})
	w := mpi.NewWorld(1, m, sim.IdealEnv{})
	w.Run(func(r *mpi.Rank) {
		tr := NewTraced(r, rt.Config{}, DefaultOptions(), nil, nil)
		if _, err := tr.Open("/x", vfs.ReadOnly); err == nil {
			t.Error("open without FS succeeded")
		}
	})
}

// §3.2: code executed in both a warm-up and a timed phase has one state
// per call-site in a context-free STG but two per call-path in a
// context-aware one.
func TestWarmupTimedPhases(t *testing.T) {
	body := func(r rt.Runtime) {
		step := func() {
			r.Compute(wl)
			r.Barrier()
		}
		warmup := func() { step() }
		timed := func() { step() }
		for i := 0; i < 3; i++ {
			warmup()
		}
		for i := 0; i < 6; i++ {
			timed()
		}
	}
	countSyncStates := func(s *memSink) int {
		m := map[uint64]bool{}
		for _, f := range s.byKind(trace.Sync) {
			m[f.State] = true
		}
		return len(m)
	}
	cf, _ := runTraced(t, 1, DefaultOptions(), body)
	opt := DefaultOptions()
	opt.Mode = ContextAware
	ca, _ := runTraced(t, 1, opt, body)
	if n := countSyncStates(cf); n != 1 {
		t.Fatalf("context-free states: %d, want 1 (one call-site)", n)
	}
	if n := countSyncStates(ca); n != 2 {
		t.Fatalf("context-aware states: %d, want 2 (warm-up and timed call paths)", n)
	}
}
