// Package noise builds schedules of injected performance noise — the
// simulated counterparts of the paper's `stress` (CPU contention),
// `stream` (memory-bandwidth contention), IO interference, degraded
// hardware, and the Intel L2-eviction erratum. A Schedule implements
// sim.Environment: the machine model queries it per fragment to learn
// the conditions under which a core runs.
package noise

import (
	"math"
	"sync"

	"vapro/internal/sim"
)

// Event is one noise injection: a perturbation of conditions on a set of
// cores during a time window. The zero value of the selector fields
// means "match everything" so whole-machine noise is easy to express.
type Event struct {
	// Window. End <= Start means "forever from Start".
	Start, End sim.Time

	// Target selection. Node/Core < 0 match any node/core; AllCores
	// applies the event to every core of the selected node(s).
	Node, Core int
	AllCores   bool

	// Effect. Zero-valued fields leave the corresponding condition
	// untouched; set fields combine multiplicatively (shares multiply,
	// slowdowns multiply, probabilities add).
	CPUShare      float64 // app's CPU share while active (e.g. 0.5)
	MemSlowdown   float64 // memory stall multiplier (e.g. 2.5)
	IOSlowdown    float64 // IO service-time multiplier
	NetSlowdown   float64 // network cost multiplier
	L2BugProb     float64 // per-fragment erratum probability
	L2BugSeverity float64 // stall slots per retiring slot per episode

	// Label describes the event in reports and experiment logs.
	Label string
}

func (e Event) active(node, core int, t sim.Time) bool {
	if t < e.Start {
		return false
	}
	if e.End > e.Start && t >= e.End {
		return false
	}
	if e.Node >= 0 && e.Node != node {
		return false
	}
	if !e.AllCores && e.Core >= 0 && e.Core != core {
		return false
	}
	return true
}

// Schedule is a composition of noise events. The zero value is a quiet
// machine. Schedules are immutable after the first At call; build them
// fully before handing them to a run.
type Schedule struct {
	mu     sync.Mutex
	events []Event
	sealed bool
}

// NewSchedule returns an empty (quiet) schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// Add appends an event. It panics if the schedule has already been used
// by a run, because mutating conditions mid-run would be racy.
func (s *Schedule) Add(e Event) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		panic("noise: Add after schedule in use")
	}
	if e.Node == 0 && e.Core == 0 && !e.AllCores {
		// Zero-value selectors are almost always a mistake ("node 0
		// core 0 only"); keep them, but normalize negatives below.
	}
	s.events = append(s.events, e)
	return s
}

// At implements sim.Environment by folding every active event into the
// ideal conditions.
func (s *Schedule) At(node, core int, t sim.Time) sim.Conditions {
	s.mu.Lock()
	if !s.sealed {
		s.sealed = true
	}
	events := s.events
	s.mu.Unlock()

	c := sim.Ideal()
	for i := range events {
		e := &events[i]
		if !e.active(node, core, t) {
			continue
		}
		if e.CPUShare > 0 {
			c.CPUShare *= e.CPUShare
		}
		if e.MemSlowdown > 1 {
			c.MemSlowdown *= e.MemSlowdown
		}
		if e.IOSlowdown > 1 {
			c.IOSlowdown *= e.IOSlowdown
		}
		if e.NetSlowdown > 1 {
			c.NetSlowdown *= e.NetSlowdown
		}
		c.L2BugProb += e.L2BugProb
		if e.L2BugSeverity > c.L2BugSeverity {
			c.L2BugSeverity = e.L2BugSeverity
		}
	}
	if c.L2BugProb > 1 {
		c.L2BugProb = 1
	}
	return c
}

// Convenience constructors for the paper's canonical noises.

// CPUContention emulates running `stress` on the same core: the
// application keeps only `share` of the CPU while the window is active.
func CPUContention(node, core int, start, end sim.Time, share float64) Event {
	return Event{
		Start: start, End: end, Node: node, Core: core,
		CPUShare: share, Label: "cpu-contention",
	}
}

// NodeCPUContention applies CPU contention to every core of a node.
func NodeCPUContention(node int, start, end sim.Time, share float64) Event {
	return Event{
		Start: start, End: end, Node: node, Core: -1, AllCores: true,
		CPUShare: share, Label: "cpu-contention",
	}
}

// MemContention emulates running `stream` on idle cores of a node: every
// core's memory stalls stretch by the given factor.
func MemContention(node int, start, end sim.Time, slowdown float64) Event {
	return Event{
		Start: start, End: end, Node: node, Core: -1, AllCores: true,
		MemSlowdown: slowdown, Label: "mem-contention",
	}
}

// DegradedMemoryNode models the Nekbone case study: a node whose memory
// bandwidth is permanently a factor lower (bwFraction < 1, e.g. 0.845
// for the paper's 15.5% deficit). Queueing delay near saturation grows
// superlinearly with utilization, so the stall slowdown is modeled as
// bw^-1.5 rather than bw^-1.
func DegradedMemoryNode(node int, bwFraction float64) Event {
	if bwFraction <= 0 || bwFraction >= 1 {
		bwFraction = 0.845
	}
	return Event{
		Node: node, Core: -1, AllCores: true,
		MemSlowdown: math.Pow(bwFraction, -1.5), Label: "degraded-memory-node",
	}
}

// L2Erratum models the Intel L2-cache eviction hardware bug on a range
// of cores (one socket): the erratum fires in *episodes* lasting
// seconds, during which data is repeatedly evicted from L2 — most runs
// are clean, an unlucky one is markedly slower, exactly the
// non-deterministic behaviour the HPL case study chases. Episode timing
// is drawn from seed over the given horizon. hugePages is the paper's
// mitigation: 1 GB pages make episodes rarer and far weaker.
func L2Erratum(node, firstCore, lastCore int, hugePages bool, seed uint64, horizon sim.Duration) []Event {
	prob, sev := 0.9, 1.8
	episodeChance := 0.45 // chance each potential episode materializes
	if hugePages {
		prob, sev = 0.35, 0.35
		episodeChance = 0.18
	}
	rng := sim.NewRNG(seed).Split(0x12B06)
	var events []Event
	t := sim.Time(0)
	for t < sim.Time(horizon) {
		gap := sim.Duration((0.2 + 1.0*rng.Float64()) * float64(sim.Second))
		dur := sim.Duration((0.5 + 2.5*rng.Float64()) * float64(sim.Second))
		start := t.Add(gap)
		if rng.Float64() < episodeChance {
			for c := firstCore; c <= lastCore; c++ {
				events = append(events, Event{
					Start: start, End: start.Add(dur),
					Node: node, Core: c,
					L2BugProb: prob, L2BugSeverity: sev, Label: "l2-erratum",
				})
			}
		}
		t = start.Add(dur)
	}
	return events
}

// IOInterference slows every file-system operation by the given factor
// during the window (shared distributed-filesystem contention).
func IOInterference(start, end sim.Time, slowdown float64) Event {
	return Event{
		Start: start, End: end, Node: -1, Core: -1, AllCores: true,
		IOSlowdown: slowdown, Label: "io-interference",
	}
}
