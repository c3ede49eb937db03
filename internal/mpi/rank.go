package mpi

import "vapro/internal/sim"

// Rank is one process of a World. All methods must be called from the
// single goroutine Run started for it; the rank's virtual clock is
// advanced only by that goroutine.
type Rank struct {
	id    int
	world *World
	node  int
	core  int
	clock sim.Time
	rng   *sim.RNG

	collSeq uint64
}

// ID returns the rank number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.size }

// Node returns the node index the rank is placed on.
func (r *Rank) Node() int { return r.node }

// Clock returns the rank's current virtual time.
func (r *Rank) Clock() sim.Time { return r.clock }

// RNG returns the rank-private random stream.
func (r *Rank) RNG() *sim.RNG { return r.rng }

// Advance moves the rank's clock forward by d (used by the compute
// engine and the interposition layer to charge virtual time).
func (r *Rank) Advance(d sim.Duration) {
	if d > 0 {
		r.clock = r.clock.Add(d)
	}
}

// AdvanceTo moves the clock to t if t is later.
func (r *Rank) AdvanceTo(t sim.Time) {
	if t > r.clock {
		r.clock = t
	}
}

// Compute executes workload w on this rank's core, advances the clock,
// and returns the elapsed time and counters.
func (r *Rank) Compute(w sim.Workload) (sim.Duration, sim.Counters) {
	d, c := r.world.machine.Execute(r.node, r.core, w, r.clock, r.world.env, r.rng)
	r.Advance(d)
	return d, c
}

// Send transmits bytes to dst with tag and returns the elapsed time of
// the call (the eager-protocol local cost; the payload arrives at the
// receiver after the network latency and serialization delay).
func (r *Rank) Send(dst, tag, bytes int) sim.Duration {
	r.world.checkRank(dst, "Send")
	start := r.clock
	lat, gap := r.world.transferCost(r.id, dst, start)
	local := r.world.cost.Overhead + sim.Duration(float64(bytes)*gap*0.25)
	r.Advance(local)
	r.world.inboxes[dst].put(message{
		src:   r.id,
		tag:   tag,
		bytes: bytes,
		avail: r.clock.Add(lat + sim.Duration(float64(bytes)*gap)),
	})
	return r.clock.Sub(start)
}

// Recv blocks until a message matching (src, tag) arrives, advances the
// clock to the transfer completion, and returns the payload size and the
// elapsed time of the call (including any waiting, as the paper's
// interception measures it).
func (r *Rank) Recv(src, tag int) (bytes int, elapsed sim.Duration) {
	if src != AnySource {
		r.world.checkRank(src, "Recv")
	}
	start := r.clock
	m := r.world.inboxes[r.id].take(src, tag)
	end := start.Add(r.world.cost.Overhead)
	if m.avail > end {
		end = m.avail
	}
	r.AdvanceTo(end)
	return m.bytes, r.clock.Sub(start)
}

// Sendrecv performs the paired exchange on the world communicator.
func (r *Rank) Sendrecv(dst, sendTag, bytes, src, recvTag int) (int, sim.Duration) {
	start := r.clock
	r.Send(dst, sendTag, bytes)
	n, _ := r.Recv(src, recvTag)
	return n, r.clock.Sub(start)
}

// Request is a handle for a nonblocking operation, resolved by Wait.
type Request struct {
	rank     *Rank
	isRecv   bool
	src, tag int
	// completeAt is known at creation for sends; for receives it is
	// resolved at Wait time by matching the inbox.
	completeAt sim.Time
	done       bool
	bytes      int
}

// Isend starts a nonblocking send. The local call cost is charged
// immediately (eager protocol); the returned request completes as soon
// as the send buffer is reusable.
func (r *Rank) Isend(dst, tag, bytes int) *Request {
	r.world.checkRank(dst, "Isend")
	lat, gap := r.world.transferCost(r.id, dst, r.clock)
	r.Advance(r.world.cost.Overhead)
	r.world.inboxes[dst].put(message{
		src:   r.id,
		tag:   tag,
		bytes: bytes,
		avail: r.clock.Add(lat + sim.Duration(float64(bytes)*gap)),
	})
	return &Request{rank: r, completeAt: r.clock, bytes: bytes}
}

// Irecv posts a nonblocking receive. Matching happens at Wait.
func (r *Rank) Irecv(src, tag int) *Request {
	if src != AnySource {
		r.world.checkRank(src, "Irecv")
	}
	r.Advance(r.world.cost.Overhead)
	return &Request{rank: r, isRecv: true, src: src, tag: tag, completeAt: r.clock}
}

// Wait blocks until the request completes and advances the rank's clock
// to the completion time. It returns the elapsed time of the Wait call.
func (r *Rank) Wait(q *Request) sim.Duration {
	if q == nil || q.rank != r {
		panic("mpi: Wait on foreign or nil request")
	}
	start := r.clock
	if !q.done {
		if q.isRecv {
			m := r.world.inboxes[r.id].take(q.src, q.tag)
			q.bytes = m.bytes
			if m.avail > q.completeAt {
				q.completeAt = m.avail
			}
		}
		q.done = true
	}
	r.Advance(r.world.cost.Overhead / 4)
	r.AdvanceTo(q.completeAt)
	return r.clock.Sub(start)
}

// Bytes returns the payload size of a completed receive request.
func (q *Request) Bytes() int { return q.bytes }
