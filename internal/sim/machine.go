package sim

import "math"

// Conditions describes the external environment a core observes at one
// instant of virtual time: how much CPU it actually gets, how contended
// the memory system is, whether the L2-eviction hardware bug is active,
// and how slow IO and network are. The noise package composes schedules
// of injected noise into an Environment that answers these queries.
type Conditions struct {
	// CPUShare is the fraction of CPU time the application receives on
	// this core (1 = dedicated core; 0.5 = an OS-scheduled competitor,
	// like the paper's `stress` noise, steals half the timeslices).
	CPUShare float64
	// MemSlowdown multiplies memory-bound stall slots (1 = uncontended;
	// the paper's `stream` noise and the Nekbone degraded-DIMM node
	// both act through this knob).
	MemSlowdown float64
	// L2BugProb is the per-fragment probability that the Intel
	// L2-eviction erratum fires during the fragment (HPL case study).
	L2BugProb float64
	// L2BugSeverity is the extra stall-slot load per retiring slot
	// while an erratum episode is active.
	L2BugSeverity float64
	// IOSlowdown multiplies the service time of file-system operations.
	IOSlowdown float64
	// NetSlowdown multiplies network latency and inverse bandwidth.
	NetSlowdown float64
}

// Ideal returns the conditions of a quiet, healthy machine.
func Ideal() Conditions {
	return Conditions{CPUShare: 1, MemSlowdown: 1, IOSlowdown: 1, NetSlowdown: 1}
}

// Environment answers what the external conditions are for a given core
// at a given virtual time. Implementations must be safe for concurrent
// use by multiple rank goroutines.
type Environment interface {
	At(node, core int, t Time) Conditions
}

// IdealEnv is the Environment of a perfectly quiet machine.
type IdealEnv struct{}

// At implements Environment.
func (IdealEnv) At(node, core int, t Time) Conditions { return Ideal() }

// Workload describes the intrinsic work of one computation fragment,
// independent of the machine state: how many instructions retire, how
// memory-heavy the instruction mix is, and how large the touched data
// set is. Two fragments with the same Workload are "fixed workload" in
// the paper's sense — absent variance they take the same time.
type Workload struct {
	// Instructions is the number of retired instructions.
	Instructions uint64
	// MemRatio in [0,1] is the memory intensity of the instruction mix
	// (0 = pure compute like EP, 1 = streaming like STREAM triad).
	MemRatio float64
	// WorkingSet is the touched data size in bytes; it determines which
	// cache level bounds the baseline memory stalls.
	WorkingSet uint64
	// BadSpec in [0,1] scales branch-misprediction pressure.
	BadSpec float64
	// StaticFixed marks the snippet's workload as provably fixed at
	// compile time (constant loop bounds). Execution ignores it; the
	// vSensor baseline uses it to model what static analysis can see.
	StaticFixed bool
}

// Scale returns a copy of w with the instruction count (and working set)
// multiplied by f. Useful for building workload classes in app skeletons.
func (w Workload) Scale(f float64) Workload {
	w.Instructions = uint64(float64(w.Instructions) * f)
	w.WorkingSet = uint64(float64(w.WorkingSet) * f)
	return w
}

// Config parameterizes a simulated machine.
type Config struct {
	Nodes        int     // number of nodes
	CoresPerNode int     // cores per node
	FreqGHz      float64 // core clock, cycles per nanosecond
	PMUJitter    float64 // relative stddev of counter reads (PMU error)
	Seed         uint64  // root of all randomness
}

// Machine executes workloads on simulated cores, producing elapsed
// virtual time and performance counters. The zero value is unusable;
// construct with NewMachine.
type Machine struct {
	cfg Config
}

// NewMachine validates cfg (filling zero fields with defaults) and
// returns a machine.
func NewMachine(cfg Config) *Machine {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = 24
	}
	if cfg.FreqGHz <= 0 {
		cfg.FreqGHz = 2.2
	}
	if cfg.PMUJitter < 0 {
		cfg.PMUJitter = 0
	}
	return &Machine{cfg: cfg}
}

// Nodes returns the node count.
func (m *Machine) Nodes() int { return m.cfg.Nodes }

// Place maps a rank (or thread) index to a (node, core) pair, filling
// nodes densely in rank order like an MPI block distribution.
func (m *Machine) Place(rank int) (node, core int) {
	if rank < 0 {
		rank = 0
	}
	return (rank / m.cfg.CoresPerNode) % m.cfg.Nodes, rank % m.cfg.CoresPerNode
}

// CoreRNG derives the deterministic random stream for a (node, core)
// pair. The caller owns the returned RNG; Execute never stores it, so
// one goroutine per core needs no locking.
func (m *Machine) CoreRNG(node, core int) *RNG {
	return NewRNG(m.cfg.Seed).Split(uint64(node)<<20 | uint64(core))
}

// Baseline stall structure, in stall slots per retiring slot. The exact
// values are calibration constants; what matters for the reproduction is
// the accounting structure, not the absolute magnitudes.
const (
	frontendFrac  = 0.08 // frontend-bound slots per retiring slot
	badSpecBase   = 0.02 // bad-speculation slots per retiring slot at BadSpec=0
	badSpecScale  = 0.20 // additional at BadSpec=1
	coreBoundFrac = 0.22 // core-bound slots per compute-heavy retiring slot

	osTimeslice = 4 * Millisecond // preemption granularity under contention
	softPFCost  = 2 * Microsecond
	hardPFCost  = 150 * Microsecond
)

// memStallPerRetiring returns the baseline memory stall slots per
// retiring slot and its distribution over cache levels, as a function of
// the working set. Larger working sets spill to deeper, slower levels.
func memStallPerRetiring(workingSet uint64) (total float64, l1, l2, l3, dram float64) {
	const (
		l1Size = 32 << 10
		l2Size = 1 << 20
		l3Size = 30 << 20
	)
	switch {
	case workingSet <= l1Size:
		return 0.06, 1, 0, 0, 0
	case workingSet <= l2Size:
		return 0.18, 0.35, 0.65, 0, 0
	case workingSet <= l3Size:
		return 0.60, 0.15, 0.20, 0.65, 0
	default:
		// DRAM-resident streaming: the pipeline is mostly waiting on
		// memory, which is what lets a bandwidth deficit translate
		// into a nearly proportional slowdown (Nekbone case study).
		return 2.50, 0.04, 0.05, 0.08, 0.83
	}
}

// Execute runs workload w on (node, core) starting at virtual time `at`
// under environment env, consuming randomness from rng (owned by the
// caller). It returns the elapsed virtual time and the full counter
// snapshot; masking to the armed counter groups is the caller's job.
func (m *Machine) Execute(node, core int, w Workload, at Time, env Environment, rng *RNG) (Duration, Counters) {
	if w.Instructions == 0 {
		return 0, Counters{}
	}
	cond := env.At(node, core, at)
	if cond.CPUShare <= 0 || cond.CPUShare > 1 {
		cond.CPUShare = 1
	}
	if cond.MemSlowdown < 1 {
		cond.MemSlowdown = 1
	}

	retiring := float64(w.Instructions)

	// Baseline slot structure.
	frontend := frontendFrac * retiring
	badspec := (badSpecBase + badSpecScale*clamp01(w.BadSpec)) * retiring
	coreBound := coreBoundFrac * retiring * (1 - clamp01(w.MemRatio))
	memPer, fL1, fL2, fL3, fDRAM := memStallPerRetiring(w.WorkingSet)
	memBase := memPer * retiring * clamp01(w.MemRatio)
	l1 := memBase * fL1
	l2 := memBase * fL2
	l3 := memBase * fL3
	dram := memBase * fDRAM

	// Memory contention stretches memory stalls; the marginal stalls
	// are DRAM-bound (bandwidth saturation), matching what `stream`
	// noise does to a victim on hardware.
	if cond.MemSlowdown > 1 {
		dram += memBase * (cond.MemSlowdown - 1)
	}

	// Intel L2-eviction erratum: with probability L2BugProb the
	// fragment suffers an episode of forced L2 evictions, adding
	// stalls split between L2-bound (re-fetches that hit L3) and
	// DRAM-bound (lines evicted all the way out).
	l2MissStallCycles := 0.0
	if cond.L2BugProb > 0 && rng.Float64() < cond.L2BugProb {
		extra := cond.L2BugSeverity * retiring
		l2 += extra * 0.55
		dram += extra * 0.45
		l2MissStallCycles = extra / 4
	}

	// PMU measurement jitter, applied per component; cycles are then
	// recomputed from the jittered sum so the top-down slot identity
	// holds exactly on the measured values.
	j := func(v float64) float64 {
		if v <= 0 || m.cfg.PMUJitter == 0 {
			return v
		}
		return v * rng.Jitter(m.cfg.PMUJitter)
	}
	frontend, badspec, coreBound = j(frontend), j(badspec), j(coreBound)
	l1, l2, l3, dram = j(l1), j(l2), j(l3), j(dram)

	mem := l1 + l2 + l3 + dram
	backend := coreBound + mem
	totalSlots := frontend + badspec + retiring + backend
	cycles := totalSlots / 4
	runNS := cycles / m.cfg.FreqGHz
	runTime := Duration(runNS)
	if runTime < 1 {
		runTime = 1
	}

	// OS suspension: CPU contention steals (1-share)/share of the run
	// time via involuntary preemption; page faults suspend too.
	// Preemption is quantized at the scheduler timeslice: a fragment
	// shorter than one timeslice either runs through untouched or
	// loses a whole descheduling pause — which is why sparse samplers
	// (vSensor in Figure 12) see wildly wrong loss magnitudes while a
	// dense weighted average converges to the true share.
	var susp Duration
	var involCS, softPF, hardPF uint64
	if cond.CPUShare < 1 {
		pause := Duration(float64(osTimeslice) * (1 - cond.CPUShare) / cond.CPUShare)
		if runTime >= osTimeslice {
			stolen := Duration(float64(runTime) * (1 - cond.CPUShare) / cond.CPUShare)
			susp += stolen
			involCS = uint64(stolen/pause) + 1
		} else if rng.Float64() < float64(runTime)/float64(osTimeslice) {
			susp += pause
			involCS = 1
		}
	}
	basePF := float64(w.Instructions) / 2e8 // rare background faults
	softPF += poissonish(rng, basePF)
	susp += Duration(softPF) * softPFCost
	susp += Duration(hardPF) * hardPFCost

	elapsed := runTime + susp

	c := Counters{
		TotIns:        uint64(j(retiring)),
		Cycles:        uint64(cycles),
		TSC:           elapsed,
		SlotsFrontend: uint64(frontend),
		SlotsBadSpec:  uint64(badspec),
		SlotsRetiring: uint64(retiring),
		SlotsBackend:  uint64(backend),
		SlotsCore:     uint64(coreBound),
		SlotsMemory:   uint64(mem),
		SlotsL1:       uint64(l1),
		SlotsL2:       uint64(l2),
		SlotsL3:       uint64(l3),
		SlotsDRAM:     uint64(dram),
		Suspension:    susp,
		SoftPF:        softPF,
		HardPF:        hardPF,
		InvolCS:       involCS,
		LoadStores:    uint64(j(retiring * (0.20 + 0.40*clamp01(w.MemRatio)))),
		CacheMisses:   uint64(dram / 100),
		L2MissStall:   uint64(l2MissStallCycles),
	}
	return elapsed, c
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// poissonish draws an integer with mean lambda: a proper Poisson for
// small lambda, a rounded normal approximation for large ones.
func poissonish(rng *RNG, lambda float64) uint64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return uint64(v + 0.5)
	}
	// Knuth's algorithm.
	l := math.Exp(-lambda)
	var k uint64
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
