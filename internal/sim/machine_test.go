package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func testMachine() *Machine {
	return NewMachine(Config{Nodes: 2, CoresPerNode: 4, FreqGHz: 2.0, PMUJitter: 0.002, Seed: 1})
}

func exec(m *Machine, w Workload, env Environment) (Duration, Counters) {
	return m.Execute(0, 0, w, 0, env, m.CoreRNG(0, 0))
}

func TestExecuteZeroWork(t *testing.T) {
	d, c := exec(testMachine(), Workload{}, IdealEnv{})
	if d != 0 || c.TotIns != 0 {
		t.Fatalf("zero workload produced d=%v c=%+v", d, c)
	}
}

// The top-down identity must hold on measured values: the formula-based
// quantification depends on it.
func TestSlotIdentity(t *testing.T) {
	m := testMachine()
	for _, w := range []Workload{
		{Instructions: 1e6, MemRatio: 0.5, WorkingSet: 8 << 20},
		{Instructions: 5e5, MemRatio: 0.9, WorkingSet: 64 << 20},
		{Instructions: 2e6, MemRatio: 0.1, WorkingSet: 16 << 10, BadSpec: 0.5},
	} {
		_, c := exec(m, w, IdealEnv{})
		sum := c.SlotsFrontend + c.SlotsBadSpec + c.SlotsRetiring + c.SlotsBackend
		total := 4 * c.Cycles // the top-down pipeline slot budget
		if diff := math.Abs(float64(sum) - float64(total)); diff > 8 {
			t.Fatalf("S1 slot identity broken: sum=%d total=%d", sum, total)
		}
		if diff := math.Abs(float64(c.SlotsCore+c.SlotsMemory) - float64(c.SlotsBackend)); diff > 8 {
			t.Fatalf("S2 identity broken: core+mem=%d backend=%d", c.SlotsCore+c.SlotsMemory, c.SlotsBackend)
		}
		memSum := c.SlotsL1 + c.SlotsL2 + c.SlotsL3 + c.SlotsDRAM
		if diff := math.Abs(float64(memSum) - float64(c.SlotsMemory)); diff > 8 {
			t.Fatalf("S3 identity broken: L*=%d memory=%d", memSum, c.SlotsMemory)
		}
	}
}

func TestExecuteDeterminism(t *testing.T) {
	m1, m2 := testMachine(), testMachine()
	w := Workload{Instructions: 1e6, MemRatio: 0.6, WorkingSet: 8 << 20}
	d1, c1 := exec(m1, w, IdealEnv{})
	d2, c2 := exec(m2, w, IdealEnv{})
	if d1 != d2 || c1 != c2 {
		t.Fatal("same seed, same workload must give identical results")
	}
}

func TestTotInsStableUnderNoise(t *testing.T) {
	m := testMachine()
	w := Workload{Instructions: 1e6, MemRatio: 0.6, WorkingSet: 8 << 20}
	noisy := constEnv{Conditions{CPUShare: 0.5, MemSlowdown: 3, IOSlowdown: 1, NetSlowdown: 1}}
	_, quiet := exec(m, w, IdealEnv{})
	_, loud := exec(m, w, noisy)
	rel := math.Abs(float64(quiet.TotIns)-float64(loud.TotIns)) / float64(quiet.TotIns)
	if rel > 0.02 {
		t.Fatalf("TOT_INS moved %.3f under noise; it is the workload proxy and must stay stable", rel)
	}
	if loud.TSC <= quiet.TSC {
		t.Fatalf("TSC did not grow under noise: %v <= %v", loud.TSC, quiet.TSC)
	}
}

type constEnv struct{ c Conditions }

func (e constEnv) At(node, core int, t Time) Conditions { return e.c }

func TestMemContentionHitsDRAM(t *testing.T) {
	m := testMachine()
	w := Workload{Instructions: 1e6, MemRatio: 0.9, WorkingSet: 64 << 20}
	_, quiet := exec(m, w, IdealEnv{})
	_, loud := exec(m, w, constEnv{Conditions{CPUShare: 1, MemSlowdown: 3, IOSlowdown: 1, NetSlowdown: 1}})
	if loud.SlotsDRAM <= quiet.SlotsDRAM {
		t.Fatal("memory contention must add DRAM-bound stalls")
	}
	if relDiff(loud.SlotsRetiring, quiet.SlotsRetiring) > 0.02 {
		t.Fatal("memory contention must not change retiring slots")
	}
}

func relDiff(a, b uint64) float64 {
	return math.Abs(float64(a)-float64(b)) / math.Max(float64(b), 1)
}

func TestCPUContentionSuspends(t *testing.T) {
	m := testMachine()
	// Long workload (≫ timeslice) so the steady-state share applies.
	w := Workload{Instructions: 5e7, MemRatio: 0.3, WorkingSet: 1 << 20}
	_, quiet := exec(m, w, IdealEnv{})
	_, loud := exec(m, w, constEnv{Conditions{CPUShare: 0.5, MemSlowdown: 1, IOSlowdown: 1, NetSlowdown: 1}})
	if loud.Suspension == 0 || loud.InvolCS == 0 {
		t.Fatal("CPU contention must suspend and context-switch")
	}
	run := loud.TSC - loud.Suspension
	stealRatio := float64(loud.Suspension) / float64(run)
	if math.Abs(stealRatio-1.0) > 0.15 { // share 0.5 → stolen ≈ run
		t.Fatalf("share-0.5 contention stole %.2fx of runtime, want ~1x", stealRatio)
	}
	if quiet.Suspension > loud.Suspension {
		t.Fatal("quiet run suspended more than loud run")
	}
}

// Quantized preemption: fragments shorter than a timeslice either pass
// untouched or lose a whole pause, and the time-average converges to
// the configured share.
func TestQuantizedPreemption(t *testing.T) {
	m := testMachine()
	w := Workload{Instructions: 2e6, MemRatio: 0.2, WorkingSet: 1 << 20} // ~ms scale
	env := constEnv{Conditions{CPUShare: 0.5, MemSlowdown: 1, IOSlowdown: 1, NetSlowdown: 1}}
	rng := m.CoreRNG(0, 0)
	var clean, hit int
	var totalRun, totalSusp float64
	for i := 0; i < 3000; i++ {
		d, c := m.Execute(0, 0, w, 0, env, rng)
		if c.Suspension == 0 {
			clean++
		} else {
			hit++
		}
		totalRun += float64(d - Duration(c.Suspension))
		totalSusp += float64(c.Suspension)
	}
	if clean == 0 || hit == 0 {
		t.Fatalf("quantized preemption must be all-or-nothing per fragment: clean=%d hit=%d", clean, hit)
	}
	// Expected: suspension ≈ runtime for share 0.5.
	if ratio := totalSusp / totalRun; math.Abs(ratio-1) > 0.1 {
		t.Fatalf("aggregate steal ratio %.2f, want ~1 for share 0.5", ratio)
	}
}

func TestL2BugEpisode(t *testing.T) {
	m := testMachine()
	w := Workload{Instructions: 1e6, MemRatio: 0.35, WorkingSet: 768 << 10}
	env := constEnv{Conditions{CPUShare: 1, MemSlowdown: 1, IOSlowdown: 1, NetSlowdown: 1, L2BugProb: 1, L2BugSeverity: 1.6}}
	_, quiet := exec(m, w, IdealEnv{})
	_, buggy := exec(m, w, env)
	if buggy.SlotsL2 <= quiet.SlotsL2 || buggy.SlotsDRAM <= quiet.SlotsDRAM {
		t.Fatal("erratum must add L2 and DRAM stalls")
	}
	if buggy.L2MissStall == 0 {
		t.Fatal("erratum must show up in the L2-miss stall counter")
	}
	if buggy.TSC <= quiet.TSC {
		t.Fatal("erratum must slow the fragment")
	}
}

func TestPlacement(t *testing.T) {
	m := testMachine() // 2 nodes × 4 cores
	cases := []struct{ rank, node, core int }{
		{0, 0, 0}, {3, 0, 3}, {4, 1, 0}, {7, 1, 3}, {8, 0, 0},
	}
	for _, c := range cases {
		n, co := m.Place(c.rank)
		if n != c.node || co != c.core {
			t.Fatalf("Place(%d) = (%d,%d), want (%d,%d)", c.rank, n, co, c.node, c.core)
		}
	}
}

func TestDefaultsFilled(t *testing.T) {
	m := NewMachine(Config{})
	if m.Nodes() != 1 || m.cfg.CoresPerNode != 24 || m.cfg.FreqGHz != 2.2 {
		t.Fatalf("defaults not filled: %+v", m.cfg)
	}
}

func TestWorkloadScale(t *testing.T) {
	w := Workload{Instructions: 1000, WorkingSet: 2000, MemRatio: 0.5}
	s := w.Scale(0.5)
	if s.Instructions != 500 || s.WorkingSet != 1000 || s.MemRatio != 0.5 {
		t.Fatalf("Scale: %+v", s)
	}
}

// Property: elapsed time grows monotonically with instruction count.
func TestElapsedMonotoneInInstructions(t *testing.T) {
	m := NewMachine(Config{Nodes: 1, CoresPerNode: 1, FreqGHz: 2, PMUJitter: 0, Seed: 1})
	f := func(a, b uint32) bool {
		ia, ib := uint64(a%1e6)+1, uint64(b%1e6)+1
		if ia > ib {
			ia, ib = ib, ia
		}
		da, _ := exec(m, Workload{Instructions: ia, MemRatio: 0.5, WorkingSet: 1 << 20}, IdealEnv{})
		db, _ := exec(m, Workload{Instructions: ib, MemRatio: 0.5, WorkingSet: 1 << 20}, IdealEnv{})
		return da <= db
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: fixed workloads take fixed time (within PMU jitter) absent
// variance — the paper's core premise.
func TestFixedWorkloadFixedTime(t *testing.T) {
	m := testMachine()
	w := Workload{Instructions: 1e6, MemRatio: 0.7, WorkingSet: 8 << 20}
	rng := m.CoreRNG(1, 2)
	var min, max Duration = math.MaxInt64, 0
	for i := 0; i < 200; i++ {
		d, _ := m.Execute(1, 2, w, 0, IdealEnv{}, rng)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if spread := float64(max-min) / float64(min); spread > 0.05 {
		t.Fatalf("fixed workload spread %.3f exceeds tolerance", spread)
	}
}

func TestPoissonish(t *testing.T) {
	rng := NewRNG(11)
	if poissonish(rng, 0) != 0 {
		t.Fatal("lambda 0")
	}
	// Small lambda: Knuth branch; mean ~ lambda.
	var sum float64
	for i := 0; i < 20000; i++ {
		sum += float64(poissonish(rng, 2.5))
	}
	if m := sum / 20000; math.Abs(m-2.5) > 0.1 {
		t.Fatalf("small-lambda mean %v", m)
	}
	// Large lambda: normal approximation branch.
	sum = 0
	for i := 0; i < 5000; i++ {
		sum += float64(poissonish(rng, 100))
	}
	if m := sum / 5000; math.Abs(m-100) > 2 {
		t.Fatalf("large-lambda mean %v", m)
	}
}

func TestMemStallTiers(t *testing.T) {
	m := NewMachine(Config{Nodes: 1, CoresPerNode: 1, FreqGHz: 2, PMUJitter: 0, Seed: 1})
	mk := func(ws uint64) Counters {
		_, c := exec(m, Workload{Instructions: 1e6, MemRatio: 0.9, WorkingSet: ws}, IdealEnv{})
		return c
	}
	l1 := mk(16 << 10)
	l2 := mk(512 << 10)
	l3 := mk(8 << 20)
	dram := mk(256 << 20)
	if !(l1.SlotsMemory < l2.SlotsMemory && l2.SlotsMemory < l3.SlotsMemory && l3.SlotsMemory < dram.SlotsMemory) {
		t.Fatalf("memory stalls not monotone in working set: %d %d %d %d",
			l1.SlotsMemory, l2.SlotsMemory, l3.SlotsMemory, dram.SlotsMemory)
	}
	if dram.SlotsDRAM <= l3.SlotsDRAM {
		t.Fatal("DRAM-resident workload must be DRAM-bound")
	}
	if l1.SlotsL1 == 0 || l1.SlotsDRAM != 0 {
		t.Fatalf("L1-resident workload: %+v", l1)
	}
}
