package sim

// Counters is a snapshot of the performance counters the simulated PMU
// and OS expose for one fragment of execution. The layout mirrors the
// variance breakdown model of the paper (Figure 10):
//
//	computation time
//	├── frontend bound        (S1, pipeline slots)
//	├── bad speculation       (S1, pipeline slots)
//	├── retiring              (S1, pipeline slots)
//	├── backend bound         (S1, pipeline slots)
//	│   ├── core bound        (S2)
//	│   └── memory bound      (S2)
//	│       ├── L1 bound      (S3)
//	│       ├── L2 bound      (S3)
//	│       ├── L3 bound      (S3)
//	│       └── DRAM bound    (S3)
//	└── suspension            (S1, nanoseconds of virtual time)
//	    ├── page faults       (S2, counts)
//	    │   ├── soft PF       (S3)
//	    │   └── hard PF       (S3)
//	    ├── context switches  (S2, counts)
//	    │   ├── voluntary     (S3)
//	    │   └── involuntary   (S3)
//	    └── signals           (S2, counts)
//
// Slot counters satisfy the top-down identity
//
//	SlotsFrontend + SlotsBadSpec + SlotsRetiring + SlotsBackend = 4*Cycles
//	SlotsCore + SlotsMemory = SlotsBackend
//	SlotsL1 + SlotsL2 + SlotsL3 + SlotsDRAM = SlotsMemory
//
// which the formula-based quantification in internal/diagnose relies on,
// exactly as the real top-down method [Yasin'14] does on hardware.
type Counters struct {
	// Always-available base group.
	TotIns uint64   // TOT_INS: retired instructions (the workload proxy)
	Cycles uint64   // unhalted core cycles
	TSC    Duration // elapsed virtual time including suspension

	// Top-down level 1 (pipeline slots).
	SlotsFrontend uint64
	SlotsBadSpec  uint64
	SlotsRetiring uint64
	SlotsBackend  uint64

	// Backend split (level 2).
	SlotsCore   uint64
	SlotsMemory uint64

	// Memory-bound split (level 3).
	SlotsL1   uint64
	SlotsL2   uint64
	SlotsL3   uint64
	SlotsDRAM uint64

	// OS software counters.
	Suspension Duration // time the process was not running on a CPU
	SoftPF     uint64   // minor page faults
	HardPF     uint64   // major page faults
	VolCS      uint64   // voluntary context switches
	InvolCS    uint64   // involuntary context switches
	Signals    uint64   // signals delivered

	// Optional extra PMU metrics users may select for clustering.
	LoadStores  uint64 // retired load+store instructions
	CacheMisses uint64 // last-level cache misses
	L2MissStall uint64 // CYCLE_ACTIVITY.STALLS_L2_MISS analogue (cycles)
}

// Add accumulates o into c. Used to merge the counters of consecutive
// Compute calls into a single computation fragment.
func (c *Counters) Add(o Counters) {
	c.TotIns += o.TotIns
	c.Cycles += o.Cycles
	c.TSC += o.TSC
	c.SlotsFrontend += o.SlotsFrontend
	c.SlotsBadSpec += o.SlotsBadSpec
	c.SlotsRetiring += o.SlotsRetiring
	c.SlotsBackend += o.SlotsBackend
	c.SlotsCore += o.SlotsCore
	c.SlotsMemory += o.SlotsMemory
	c.SlotsL1 += o.SlotsL1
	c.SlotsL2 += o.SlotsL2
	c.SlotsL3 += o.SlotsL3
	c.SlotsDRAM += o.SlotsDRAM
	c.Suspension += o.Suspension
	c.SoftPF += o.SoftPF
	c.HardPF += o.HardPF
	c.VolCS += o.VolCS
	c.InvolCS += o.InvolCS
	c.Signals += o.Signals
	c.LoadStores += o.LoadStores
	c.CacheMisses += o.CacheMisses
	c.L2MissStall += o.L2MissStall
}

// Group identifies a set of counters that can be armed simultaneously.
// Real PMUs expose only a few programmable counters at a time; the
// progressive diagnosis asks clients to switch groups stage by stage so
// that the concurrently active set stays small. The simulator always
// computes every counter; the progressive diagnosis zeroes the ones
// outside the armed groups, so it only ever reads what a real client
// would deliver.
type Group uint8

const (
	// GroupBase is always armed: TOT_INS, cycles, TSC.
	GroupBase Group = 1 << iota
	// GroupTopdownL1 arms the four S1 slot counters plus suspension time.
	GroupTopdownL1
	// GroupBackend arms the S2 backend split (core vs memory bound).
	GroupBackend
	// GroupMemory arms the S3 memory-level split (L1/L2/L3/DRAM bound).
	GroupMemory
	// GroupOS arms the S2/S3 OS counters (page faults, context
	// switches, signals).
	GroupOS
	// GroupExtra arms the optional clustering metrics (loads/stores,
	// cache misses, L2-miss stall cycles).
	GroupExtra
)

// Has reports whether g includes all groups in q.
func (g Group) Has(q Group) bool { return g&q == q }

// Count reports how many distinct groups are armed in g; the paper's
// overhead argument is that this number stays small at every stage.
func (g Group) Count() int {
	n := 0
	for b := Group(1); b != 0 && b <= g; b <<= 1 {
		if g&b != 0 {
			n++
		}
	}
	return n
}
