// Package diagnose implements §4: progressive performance variance
// diagnosis over fixed-workload fragments. A hierarchical variance
// breakdown model (Figure 10) organizes factors into stages; the time
// attributable to each factor is quantified either formula-based (from
// top-down PMU slot accounting) or statistically (OLS with a
// Farrar–Glauber multicollinearity screen) for factors that only expose
// event counts; a progressive controller descends the model stage by
// stage, arming only the counter groups the current stage needs.
package diagnose

import (
	"vapro/internal/sim"
	"vapro/internal/trace"
)

// Factor is a node of the variance breakdown model.
type Factor int

// Breakdown model factors (Figure 10).
const (
	// Stage 1.
	FrontendBound Factor = iota
	BadSpeculation
	Retiring
	BackendBound
	Suspension
	// Stage 2 under BackendBound.
	CoreBound
	MemoryBound
	// Stage 2 under Suspension.
	PageFault
	ContextSwitch
	Signal
	// Stage 3 under MemoryBound.
	L1Bound
	L2Bound
	L3Bound
	DRAMBound
	// Stage 3 under PageFault.
	SoftPageFault
	HardPageFault
	// Stage 3 under ContextSwitch.
	VoluntaryCS
	InvoluntaryCS

	numFactors
)

// String implements fmt.Stringer.
func (f Factor) String() string {
	names := [...]string{
		"frontend-bound", "bad-speculation", "retiring", "backend-bound", "suspension",
		"core-bound", "memory-bound",
		"page-fault", "context-switch", "signal",
		"L1-bound", "L2-bound", "L3-bound", "DRAM-bound",
		"soft-page-fault", "hard-page-fault",
		"voluntary-cs", "involuntary-cs",
	}
	if int(f) < len(names) {
		return names[f]
	}
	return "unknown-factor"
}

// Stage returns the factor's stage (1, 2 or 3).
func (f Factor) Stage() int {
	switch f {
	case FrontendBound, BadSpeculation, Retiring, BackendBound, Suspension:
		return 1
	case CoreBound, MemoryBound, PageFault, ContextSwitch, Signal:
		return 2
	default:
		return 3
	}
}

// Children returns the factor's direct refinements.
func (f Factor) Children() []Factor {
	switch f {
	case BackendBound:
		return []Factor{CoreBound, MemoryBound}
	case Suspension:
		return []Factor{PageFault, ContextSwitch, Signal}
	case MemoryBound:
		return []Factor{L1Bound, L2Bound, L3Bound, DRAMBound}
	case PageFault:
		return []Factor{SoftPageFault, HardPageFault}
	case ContextSwitch:
		return []Factor{VoluntaryCS, InvoluntaryCS}
	default:
		return nil
	}
}

// StageOne lists the stage-1 factors.
func StageOne() []Factor {
	return []Factor{FrontendBound, BadSpeculation, Retiring, BackendBound, Suspension}
}

// OSFactors lists the suspension-related factors §4.2 quantifies
// statistically, in the order the progressive controller feeds them to
// the quantifier (filtered by stage before use).
func OSFactors() []Factor {
	return []Factor{Suspension, PageFault, ContextSwitch, Signal,
		SoftPageFault, HardPageFault, VoluntaryCS, InvoluntaryCS}
}

// RequiredGroup returns the counter group a factor's quantification
// needs armed — this is what the progressive controller asks clients to
// switch to when it refines into the factor.
func (f Factor) RequiredGroup() sim.Group {
	switch f {
	case FrontendBound, BadSpeculation, Retiring, BackendBound, Suspension:
		return sim.GroupTopdownL1
	case CoreBound, MemoryBound:
		return sim.GroupBackend
	case L1Bound, L2Bound, L3Bound, DRAMBound:
		return sim.GroupMemory
	default:
		return sim.GroupOS
	}
}

// Quantifiable reports whether the factor's time can be computed
// directly from counters by formula (background-colored nodes in Figure
// 10). Unquantifiable factors expose only event counts; their time is
// estimated by the OLS method.
func (f Factor) Quantifiable() bool {
	switch f {
	case PageFault, ContextSwitch, Signal,
		SoftPageFault, HardPageFault, VoluntaryCS, InvoluntaryCS:
		return false
	default:
		return true
	}
}

// TimeNS returns the formula-based time (ns) of a quantifiable factor
// for one fragment: slot factors get their top-down share of the
// running (non-suspended) time; suspension is measured directly. The
// second return is false when the factor is unquantifiable or the
// needed counters are zero (not armed).
func TimeNS(f Factor, frag *trace.Fragment) (float64, bool) {
	c := &frag.Counters
	runNS := float64(frag.Elapsed - c.SuspensionNS)
	if runNS < 0 {
		runNS = 0
	}
	slots := float64(4 * c.Cycles)
	share := func(s uint64) (float64, bool) {
		if slots == 0 {
			return 0, false
		}
		return float64(s) / slots * runNS, true
	}
	switch f {
	case FrontendBound:
		return share(c.SlotsFrontend)
	case BadSpeculation:
		return share(c.SlotsBadSpec)
	case Retiring:
		return share(c.SlotsRetiring)
	case BackendBound:
		return share(c.SlotsBackend)
	case Suspension:
		return float64(c.SuspensionNS), true
	case CoreBound:
		return share(c.SlotsCore)
	case MemoryBound:
		return share(c.SlotsMemory)
	case L1Bound:
		return share(c.SlotsL1)
	case L2Bound:
		return share(c.SlotsL2)
	case L3Bound:
		return share(c.SlotsL3)
	case DRAMBound:
		return share(c.SlotsDRAM)
	default:
		return 0, false
	}
}

// Count returns the event count of an unquantifiable factor for one
// fragment (the OLS explanatory variable).
func Count(f Factor, frag *trace.Fragment) float64 {
	c := &frag.Counters
	switch f {
	case PageFault:
		return float64(c.SoftPF + c.HardPF)
	case SoftPageFault:
		return float64(c.SoftPF)
	case HardPageFault:
		return float64(c.HardPF)
	case ContextSwitch:
		return float64(c.VolCS + c.InvolCS)
	case VoluntaryCS:
		return float64(c.VolCS)
	case InvoluntaryCS:
		return float64(c.InvolCS)
	case Signal:
		return float64(c.Signals)
	default:
		return 0
	}
}

// Metric returns the factor's raw magnitude for one fragment: formula
// time for quantifiable factors, event count for the rest. Used as the
// common currency of contribution analysis and OLS design matrices.
func Metric(f Factor, frag *trace.Fragment) float64 {
	if f.Quantifiable() {
		v, _ := TimeNS(f, frag)
		return v
	}
	return Count(f, frag)
}
