package diagnose

import (
	"math"
	"testing"
	"testing/quick"

	"vapro/internal/sim"
	"vapro/internal/trace"
)

// --- factor model structure ---

func TestFactorTreeStructure(t *testing.T) {
	parent := map[Factor]Factor{}
	for f := Factor(0); f < numFactors; f++ {
		for _, k := range f.Children() {
			if p, ok := parent[k]; ok {
				t.Fatalf("%v listed by both %v and %v", k, p, f)
			}
			parent[k] = f
		}
	}
	for f := Factor(0); f < numFactors; f++ {
		// Every non-S1 factor is one stage below the factor listing it.
		if p, ok := parent[f]; ok {
			if p.Stage() != f.Stage()-1 {
				t.Fatalf("%v stage %d but parent %v stage %d", f, f.Stage(), p, p.Stage())
			}
		} else if f.Stage() != 1 {
			t.Fatalf("%v has no parent but stage %d", f, f.Stage())
		}
		if f.String() == "unknown-factor" {
			t.Fatalf("factor %d has no name", f)
		}
		if f.RequiredGroup() == 0 {
			t.Fatalf("%v has no counter group", f)
		}
	}
	if len(StageOne()) != 5 {
		t.Fatal("stage one must have 5 factors")
	}
}

func TestQuantifiableSplit(t *testing.T) {
	// Slot factors are formula-quantifiable; OS counts are not.
	for _, f := range []Factor{FrontendBound, BackendBound, MemoryBound, DRAMBound, Suspension} {
		if !f.Quantifiable() {
			t.Fatalf("%v should be quantifiable", f)
		}
	}
	for _, f := range []Factor{PageFault, ContextSwitch, InvoluntaryCS, SoftPageFault, Signal} {
		if f.Quantifiable() {
			t.Fatalf("%v should be unquantifiable", f)
		}
	}
}

// --- formula-based quantification ---

func synthFragment(elapsed, suspension int64) trace.Fragment {
	// 4*cycles = 1000 slots split 100/50/600/250.
	return trace.Fragment{
		Kind: trace.Comp, Elapsed: elapsed,
		Counters: trace.CountersView{
			TotIns: 600, Cycles: 250,
			SlotsFrontend: 100, SlotsBadSpec: 50, SlotsRetiring: 600, SlotsBackend: 250,
			SlotsCore: 100, SlotsMemory: 150,
			SlotsL1: 30, SlotsL2: 30, SlotsL3: 40, SlotsDRAM: 50,
			SuspensionNS: suspension,
			SoftPF:       2, InvolCS: 3,
		},
	}
}

func TestTimeNSSharesSumToRuntime(t *testing.T) {
	f := synthFragment(1000, 200)
	var sum float64
	for _, fac := range StageOne() {
		v, ok := TimeNS(fac, &f)
		if !ok {
			t.Fatalf("%v not quantifiable on full counters", fac)
		}
		sum += v
	}
	// S1 shares + suspension must reconstruct the elapsed time.
	if math.Abs(sum-1000) > 1 {
		t.Fatalf("S1 times sum to %v, want 1000", sum)
	}
}

func TestTimeNSSubFactors(t *testing.T) {
	f := synthFragment(1000, 200)
	be, _ := TimeNS(BackendBound, &f)
	core, _ := TimeNS(CoreBound, &f)
	mem, _ := TimeNS(MemoryBound, &f)
	if math.Abs(core+mem-be) > 1e-9 {
		t.Fatalf("core+mem (%v) != backend (%v)", core+mem, be)
	}
	var lsum float64
	for _, lf := range []Factor{L1Bound, L2Bound, L3Bound, DRAMBound} {
		v, _ := TimeNS(lf, &f)
		lsum += v
	}
	if math.Abs(lsum-mem) > 1e-9 {
		t.Fatalf("L1..DRAM (%v) != memory (%v)", lsum, mem)
	}
}

func TestCounts(t *testing.T) {
	f := synthFragment(1000, 200)
	if Count(SoftPageFault, &f) != 2 || Count(InvoluntaryCS, &f) != 3 {
		t.Fatal("counts")
	}
	if Count(PageFault, &f) != 2 || Count(ContextSwitch, &f) != 3 {
		t.Fatal("aggregate counts")
	}
}

// --- split / progressive diagnosis ---

// synthCluster builds a cluster of n fragments where `slow` of them are
// 2x slower with the excess attributed to extra backend (memory) slots.
func synthCluster(n, slow int) []trace.Fragment {
	frags := make([]trace.Fragment, 0, n)
	for i := 0; i < n; i++ {
		if i < slow {
			// Slow: double elapsed, backend slots way up (DRAM).
			f := trace.Fragment{
				Kind: trace.Comp, Elapsed: 2000,
				Counters: trace.CountersView{
					TotIns: 600, Cycles: 500,
					SlotsFrontend: 100, SlotsBadSpec: 50, SlotsRetiring: 600, SlotsBackend: 1250,
					SlotsCore: 100, SlotsMemory: 1150,
					SlotsL1: 30, SlotsL2: 30, SlotsL3: 40, SlotsDRAM: 1050,
				},
			}
			frags = append(frags, f)
		} else {
			frags = append(frags, synthFragment(1000, 0))
		}
	}
	return frags
}

func TestProgressiveFindsMemoryBound(t *testing.T) {
	clusters := [][]trace.Fragment{synthCluster(40, 8)}
	rep := New(DefaultOptions()).Run(clusters, nil)
	if rep.AbnormalFrags != 8 || rep.NormalFrags != 32 {
		t.Fatalf("split: %d abnormal / %d normal", rep.AbnormalFrags, rep.NormalFrags)
	}
	if rep.TotalSlowdownNS <= 0 {
		t.Fatal("no slowdown measured")
	}
	if len(rep.Factors) == 0 || rep.Factors[0].Factor != BackendBound {
		t.Fatalf("top factors %+v, want backend-bound first", rep.Factors)
	}
	be := rep.Find(BackendBound)
	if be == nil || !be.Major {
		t.Fatal("backend not refined")
	}
	mem := rep.Find(MemoryBound)
	if mem == nil || mem.ImpactFrac < 0.8 {
		t.Fatalf("memory-bound impact: %+v", mem)
	}
	dram := rep.Find(DRAMBound)
	if dram == nil || dram.ImpactFrac < 0.8 {
		t.Fatalf("DRAM-bound impact: %+v", dram)
	}
	// Progressive descent to S3 memory must have armed extra groups
	// across multiple stages.
	if rep.Stages < 2 {
		t.Fatalf("stages = %d, want progressive refinement", rep.Stages)
	}
	if !rep.GroupsArmed.Has(sim.GroupMemory) {
		t.Fatal("memory counter group never armed")
	}
}

func TestNoVarianceNoDiagnosis(t *testing.T) {
	clusters := [][]trace.Fragment{synthCluster(40, 0)}
	rep := New(DefaultOptions()).Run(clusters, nil)
	if rep.AbnormalFrags != 0 || rep.TotalSlowdownNS != 0 {
		t.Fatalf("quiet cluster diagnosed: %+v", rep)
	}
}

func TestAbnormalRatioOption(t *testing.T) {
	// Fragments at 1.1x the fastest: abnormal under ka=1.05, normal
	// under default ka=1.2.
	frags := make([]trace.Fragment, 0, 20)
	for i := 0; i < 10; i++ {
		frags = append(frags, synthFragment(1000, 0))
		frags = append(frags, synthFragment(1100, 0))
	}
	def := New(DefaultOptions()).Run([][]trace.Fragment{frags}, nil)
	if def.AbnormalFrags != 0 {
		t.Fatalf("1.1x fragments abnormal under ka=1.2: %d", def.AbnormalFrags)
	}
	opt := DefaultOptions()
	opt.AbnormalRatio = 1.05
	tight := New(opt).Run([][]trace.Fragment{frags}, nil)
	if tight.AbnormalFrags != 10 {
		t.Fatalf("ka=1.05 found %d abnormal, want 10", tight.AbnormalFrags)
	}
}

func TestMaxStageLimitsDescent(t *testing.T) {
	clusters := [][]trace.Fragment{synthCluster(40, 8)}
	opt := DefaultOptions()
	opt.MaxStage = 1
	rep := New(opt).Run(clusters, nil)
	if rep.Find(MemoryBound) != nil {
		t.Fatal("stage-1 cap still descended to S2")
	}
	if rep.Stages != 1 {
		t.Fatalf("stages = %d", rep.Stages)
	}
}

func TestSuspensionDiagnosis(t *testing.T) {
	// Slow fragments suspended by involuntary context switches.
	var frags []trace.Fragment
	for i := 0; i < 40; i++ {
		f := synthFragment(1000, 0)
		if i < 8 {
			f.Elapsed = 2500
			f.Counters.SuspensionNS = 1500
			f.Counters.InvolCS = 5
		}
		frags = append(frags, f)
	}
	rep := New(DefaultOptions()).Run([][]trace.Fragment{frags}, nil)
	if len(rep.Factors) == 0 || rep.Factors[0].Factor != Suspension {
		t.Fatalf("top factors %+v, want suspension first", rep.Factors)
	}
	cs := rep.Find(ContextSwitch)
	if cs == nil {
		t.Fatal("context-switch factor not refined")
	}
	if rep.OLS == nil {
		t.Fatal("OLS quantification missing")
	}
	if p, ok := rep.OLS.PValue[InvoluntaryCS]; ok && p > 0.05 {
		t.Fatalf("involuntary CS not significant: p=%v", p)
	}
}

// allGroups arms every counter group.
const allGroups = sim.GroupBase | sim.GroupTopdownL1 | sim.GroupBackend | sim.GroupMemory | sim.GroupOS | sim.GroupExtra

// maskCounters sets every counter maskView knows, each to its own value.
var maskCounters = trace.CountersView{
	TotIns: 1000, Cycles: 500,
	SlotsFrontend: 100, SlotsBadSpec: 50, SlotsRetiring: 1000, SlotsBackend: 850,
	SlotsCore: 200, SlotsMemory: 650,
	SlotsL1: 100, SlotsL2: 150, SlotsL3: 200, SlotsDRAM: 210,
	SuspensionNS: 42, SoftPF: 3, HardPF: 1, VolCS: 2, InvolCS: 5, Signals: 1,
	LoadStores: 400, CacheMisses: 7, L2MissStall: 9,
}

func TestMaskView(t *testing.T) {
	c := maskCounters
	t.Run("BaseAlwaysKept", func(t *testing.T) {
		m := maskView(c, sim.GroupBase)
		if m.TotIns != c.TotIns || m.Cycles != c.Cycles {
			t.Fatal("base fields must survive any mask")
		}
		if m.SlotsBackend != 0 || m.SoftPF != 0 || m.LoadStores != 0 {
			t.Fatalf("non-armed fields leaked: %+v", m)
		}
	})
	t.Run("AllIsIdentity", func(t *testing.T) {
		if full := maskView(c, allGroups); full != c {
			t.Fatal("arming every group must be the identity")
		}
	})
}

func TestMaskViewGroupSelectivity(t *testing.T) {
	c := maskCounters

	m := maskView(c, sim.GroupBase|sim.GroupTopdownL1)
	if m.SlotsFrontend != c.SlotsFrontend || m.SuspensionNS != c.SuspensionNS {
		t.Fatal("topdown L1 group not delivered")
	}
	if m.SlotsMemory != 0 || m.SlotsL2 != 0 || m.SoftPF != 0 {
		t.Fatal("other groups leaked through topdown mask")
	}

	m = maskView(c, sim.GroupBase|sim.GroupBackend)
	if m.SlotsCore != c.SlotsCore || m.SlotsMemory != c.SlotsMemory {
		t.Fatal("backend group not delivered")
	}
	if m.SlotsL1 != 0 {
		t.Fatal("memory group leaked through backend mask")
	}

	m = maskView(c, sim.GroupBase|sim.GroupMemory)
	if m.SlotsL3 != c.SlotsL3 || m.SlotsDRAM != c.SlotsDRAM {
		t.Fatal("memory group not delivered")
	}

	m = maskView(c, sim.GroupBase|sim.GroupOS)
	if m.SoftPF != c.SoftPF || m.InvolCS != c.InvolCS || m.SuspensionNS != c.SuspensionNS {
		t.Fatal("OS group not delivered")
	}

	m = maskView(c, sim.GroupBase|sim.GroupExtra)
	if m.LoadStores != c.LoadStores || m.L2MissStall != c.L2MissStall {
		t.Fatal("extra group not delivered")
	}
}

// Property: masking is idempotent.
func TestMaskViewIdempotent(t *testing.T) {
	f := func(armedBits uint8) bool {
		armed := sim.Group(armedBits) & allGroups
		once := maskView(maskCounters, armed)
		return maskView(once, armed) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollectMasks(t *testing.T) {
	clusters := [][]trace.Fragment{synthCluster(6, 0)}
	got := collect(clusters, sim.GroupBase)
	if got[0][0].Counters.SlotsBackend != 0 {
		t.Fatal("collect did not mask")
	}
	// Original untouched.
	if clusters[0][0].Counters.SlotsBackend == 0 {
		t.Fatal("collect mutated the clusters")
	}
}

func TestReportString(t *testing.T) {
	rep := New(DefaultOptions()).Run([][]trace.Fragment{synthCluster(40, 8)}, nil)
	s := rep.String()
	if s == "" || rep.Find(BackendBound) == nil {
		t.Fatal("report rendering")
	}
}

// --- OLS quantification ---

func TestQuantifyOLSRecoversEventCost(t *testing.T) {
	// Elapsed = 1000 + 100ns per involuntary CS; the OLS should
	// estimate ~100ns per event.
	rng := sim.NewRNG(3)
	var frags []trace.Fragment
	for i := 0; i < 200; i++ {
		cs := uint64(rng.Intn(20))
		f := synthFragment(1000+int64(cs)*100+int64(rng.Intn(10)), 0)
		f.Counters.InvolCS = cs
		f.Counters.VolCS = 0
		f.Counters.SoftPF = 0
		frags = append(frags, f)
	}
	q := QuantifyOLS([][]trace.Fragment{frags}, []Factor{InvoluntaryCS})
	tpu, ok := q.TimePerUnit[InvoluntaryCS]
	if !ok {
		t.Fatalf("involCS not quantified: %+v", q)
	}
	if math.Abs(tpu-100) > 15 {
		t.Fatalf("time per CS = %v, want ~100", tpu)
	}
}

func TestQuantifyOLSDropsCollinear(t *testing.T) {
	// PageFault == SoftPageFault by construction (perfect collinearity
	// — the paper's example of a user-space fault also being a context
	// switch).
	rng := sim.NewRNG(4)
	var frags []trace.Fragment
	for i := 0; i < 200; i++ {
		pf := uint64(rng.Intn(10))
		f := synthFragment(1000+int64(pf)*200+int64(rng.Intn(10)), 0)
		f.Counters.SoftPF = pf
		f.Counters.HardPF = 0
		frags = append(frags, f)
	}
	q := QuantifyOLS([][]trace.Fragment{frags}, []Factor{PageFault, SoftPageFault})
	if len(q.Dropped) == 0 {
		t.Fatalf("perfectly collinear pair not screened: %+v", q)
	}
	// The dropped factor should still receive an estimate through its
	// relationship with the kept one.
	if len(q.TimePerUnit) < 2 {
		t.Fatalf("dropped factor not estimated via collinearity: %+v", q.TimePerUnit)
	}
}

func TestQuantifyOLSTooFewObservations(t *testing.T) {
	q := QuantifyOLS([][]trace.Fragment{synthCluster(2, 0)}, []Factor{InvoluntaryCS})
	if len(q.TimePerUnit) != 0 {
		t.Fatal("degenerate input produced estimates")
	}
}
