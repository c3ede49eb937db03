// Package mpi is an in-process, virtual-time message-passing runtime:
// the substitution for real MPI documented in DESIGN.md. Ranks are
// goroutines, each with its own virtual clock; point-to-point messages
// carry virtual timestamps and a LogGP-style cost model decides when a
// transfer completes; collectives are bulk-synchronous (everyone leaves
// at the max arrival time plus the collective's cost).
//
// Vapro only ever observes invocations — call-site, arguments, and
// elapsed virtual time — so this runtime produces exactly the signal a
// PMPI interposition layer would see on a real cluster, deterministically
// and at 2048 ranks on a laptop.
package mpi

import (
	"fmt"
	"math"
	"sync"

	"vapro/internal/sim"
)

// AnySource matches a message from any sender in Recv.
const AnySource = -1

// AnyTag matches any message tag in Recv.
const AnyTag = -1

// CostModel holds the LogGP-style parameters of the interconnect.
type CostModel struct {
	LatencyIntra sim.Duration // one-way latency, same node
	LatencyInter sim.Duration // one-way latency, cross node
	GapIntra     float64      // ns per byte, same node (shared memory)
	GapInter     float64      // ns per byte, cross node
	Overhead     sim.Duration // CPU overhead per p2p call
	CollPerStage sim.Duration // per-stage overhead of a collective
}

// DefaultCostModel resembles the paper's testbed: a 50 Gb/s fabric with
// microsecond-scale latency and fast shared-memory transport.
func DefaultCostModel() CostModel {
	return CostModel{
		LatencyIntra: 600 * sim.Nanosecond,
		LatencyInter: 1500 * sim.Nanosecond,
		GapIntra:     0.05,
		GapInter:     0.16,
		Overhead:     300 * sim.Nanosecond,
		CollPerStage: 500 * sim.Nanosecond,
	}
}

// World is a communicator spanning `size` ranks placed on a simulated
// machine. Construct with NewWorld and drive with Run.
type World struct {
	size    int
	machine *sim.Machine
	env     sim.Environment
	cost    CostModel

	inboxes []*inbox

	collMu    sync.Mutex
	collSlots map[uint64]*collSlot
}

// NewWorld creates a communicator of the given size on machine m under
// environment env. Ranks are placed densely (machine.Place).
func NewWorld(size int, m *sim.Machine, env sim.Environment) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	if env == nil {
		env = sim.IdealEnv{}
	}
	w := &World{
		size:      size,
		machine:   m,
		env:       env,
		cost:      DefaultCostModel(),
		inboxes:   make([]*inbox, size),
		collSlots: make(map[uint64]*collSlot),
	}
	for i := range w.inboxes {
		w.inboxes[i] = newInbox()
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run starts one goroutine per rank executing body and blocks until all
// ranks return. It returns the final virtual clocks of all ranks (the
// per-rank execution times).
func (w *World) Run(body func(r *Rank)) []sim.Time {
	clocks := make([]sim.Time, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	for i := 0; i < w.size; i++ {
		r := w.newRank(i)
		go func() {
			defer wg.Done()
			body(r)
			clocks[r.id] = r.clock
		}()
	}
	wg.Wait()
	return clocks
}

func (w *World) newRank(id int) *Rank {
	node, core := w.machine.Place(id)
	return &Rank{
		id:    id,
		world: w,
		node:  node,
		core:  core,
		rng:   w.machine.CoreRNG(node, core).Split(uint64(id)),
	}
}

// message is an in-flight point-to-point transfer.
type message struct {
	src, tag int
	bytes    int
	avail    sim.Time // when the payload is fully available at the receiver
}

// inbox is an unbounded, condition-variable-guarded mailbox. Unbounded
// buffering models MPI's eager protocol and keeps senders non-blocking,
// so no artificial wall-clock deadlocks appear.
type inbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *inbox) put(m message) {
	b.mu.Lock()
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	b.cond.Signal()
}

// take blocks until a message matching (src, tag) is present and
// removes it. Arrival order is preserved per sender, which is all MPI
// promises.
func (b *inbox) take(src, tag int) message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i := range b.queue {
			m := b.queue[i]
			if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				return m
			}
		}
		b.cond.Wait()
	}
}

// collSlot coordinates one collective operation across all ranks.
type collSlot struct {
	mu       sync.Mutex
	cond     *sync.Cond
	arrived  int
	maxEnter sim.Time
	done     bool
	leaveAt  sim.Time
}

// collective synchronizes all ranks at their seq-th collective call and
// returns the common completion time: max arrival + cost.
func (w *World) collective(seq uint64, enter sim.Time, cost func(maxEnter sim.Time) sim.Time) sim.Time {
	w.collMu.Lock()
	s, ok := w.collSlots[seq]
	if !ok {
		s = &collSlot{}
		s.cond = sync.NewCond(&s.mu)
		w.collSlots[seq] = s
	}
	w.collMu.Unlock()

	s.mu.Lock()
	if enter > s.maxEnter {
		s.maxEnter = enter
	}
	s.arrived++
	if s.arrived == w.size {
		s.leaveAt = cost(s.maxEnter)
		s.done = true
		s.cond.Broadcast()
		// Last participant retires the slot.
		w.collMu.Lock()
		delete(w.collSlots, seq)
		w.collMu.Unlock()
	} else {
		for !s.done {
			s.cond.Wait()
		}
	}
	leave := s.leaveAt
	s.mu.Unlock()
	return leave
}

// logStages returns ceil(log2(n)), the stage count of tree collectives.
func logStages(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

func (w *World) sameNode(a, b int) bool {
	na, _ := w.machine.Place(a)
	nb, _ := w.machine.Place(b)
	return na == nb
}

// transferCost returns latency and per-byte gap between two ranks,
// scaled by the network slowdown active at time t.
func (w *World) transferCost(src, dst int, t sim.Time) (sim.Duration, float64) {
	node, core := w.machine.Place(src)
	slow := w.env.At(node, core, t).NetSlowdown
	if slow < 1 {
		slow = 1
	}
	if w.sameNode(src, dst) {
		return sim.Duration(float64(w.cost.LatencyIntra) * slow), w.cost.GapIntra * slow
	}
	return sim.Duration(float64(w.cost.LatencyInter) * slow), w.cost.GapInter * slow
}

func (w *World) checkRank(r int, op string) {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("mpi: %s: rank %d out of range [0,%d)", op, r, w.size))
	}
}
