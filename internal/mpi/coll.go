package mpi

import "vapro/internal/sim"

// Collectives are bulk-synchronous: every rank leaves at the maximum
// arrival time plus the operation's cost. This matches the observable
// behavior of tree-based implementations closely enough for Vapro, whose
// interception only records per-rank elapsed times (which do differ
// across ranks here: early arrivers wait longer).

// collCost computes the completion time of a tree collective moving
// `bytes` per stage across `stages` stages.
func (w *World) collCost(maxEnter sim.Time, stages int, bytes int) sim.Time {
	lat, gap := w.cost.LatencyInter, w.cost.GapInter
	if w.machine.Nodes() == 1 {
		lat, gap = w.cost.LatencyIntra, w.cost.GapIntra
	}
	node, core := 0, 0
	slow := w.env.At(node, core, maxEnter).NetSlowdown
	if slow < 1 {
		slow = 1
	}
	per := sim.Duration(float64(lat+w.cost.CollPerStage)*slow) +
		sim.Duration(float64(bytes)*gap*slow)
	return maxEnter.Add(sim.Duration(stages) * per)
}

func (r *Rank) nextColl() uint64 {
	r.collSeq++
	return r.collSeq
}

// Barrier blocks until every rank has entered and returns the elapsed
// time of the call.
func (r *Rank) Barrier() sim.Duration {
	start := r.clock
	leave := r.world.collective(r.nextColl(), r.clock, func(maxEnter sim.Time) sim.Time {
		return r.world.collCost(maxEnter, logStages(r.world.size), 0)
	})
	r.AdvanceTo(leave)
	return r.clock.Sub(start)
}

// Bcast broadcasts bytes from root to every rank.
func (r *Rank) Bcast(root, bytes int) sim.Duration {
	r.world.checkRank(root, "Bcast")
	start := r.clock
	leave := r.world.collective(r.nextColl(), r.clock, func(maxEnter sim.Time) sim.Time {
		return r.world.collCost(maxEnter, logStages(r.world.size), bytes)
	})
	r.AdvanceTo(leave)
	return r.clock.Sub(start)
}

// Reduce combines bytes from every rank at root.
func (r *Rank) Reduce(root, bytes int) sim.Duration {
	r.world.checkRank(root, "Reduce")
	start := r.clock
	leave := r.world.collective(r.nextColl(), r.clock, func(maxEnter sim.Time) sim.Time {
		return r.world.collCost(maxEnter, logStages(r.world.size), bytes)
	})
	r.AdvanceTo(leave)
	return r.clock.Sub(start)
}

// Allreduce combines bytes across all ranks and distributes the result.
func (r *Rank) Allreduce(bytes int) sim.Duration {
	start := r.clock
	leave := r.world.collective(r.nextColl(), r.clock, func(maxEnter sim.Time) sim.Time {
		return r.world.collCost(maxEnter, 2*logStages(r.world.size), bytes)
	})
	r.AdvanceTo(leave)
	return r.clock.Sub(start)
}

// Alltoall exchanges bytes between every pair of ranks.
func (r *Rank) Alltoall(bytesPerRank int) sim.Duration {
	start := r.clock
	leave := r.world.collective(r.nextColl(), r.clock, func(maxEnter sim.Time) sim.Time {
		// Pairwise exchange: P-1 rounds, but pipelined; model as
		// log stages with the full per-rank volume per stage.
		return r.world.collCost(maxEnter, logStages(r.world.size), bytesPerRank*logStages(r.world.size))
	})
	r.AdvanceTo(leave)
	return r.clock.Sub(start)
}

// Allgather gathers bytesPerRank from every rank to every rank.
func (r *Rank) Allgather(bytesPerRank int) sim.Duration {
	start := r.clock
	leave := r.world.collective(r.nextColl(), r.clock, func(maxEnter sim.Time) sim.Time {
		return r.world.collCost(maxEnter, logStages(r.world.size), bytesPerRank*r.world.size/2)
	})
	r.AdvanceTo(leave)
	return r.clock.Sub(start)
}

// Gather collects bytesPerRank from every rank at root.
func (r *Rank) Gather(root, bytesPerRank int) sim.Duration {
	r.world.checkRank(root, "Gather")
	start := r.clock
	leave := r.world.collective(r.nextColl(), r.clock, func(maxEnter sim.Time) sim.Time {
		return r.world.collCost(maxEnter, logStages(r.world.size), bytesPerRank*r.world.size/4)
	})
	r.AdvanceTo(leave)
	return r.clock.Sub(start)
}
