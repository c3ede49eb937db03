package collector

import (
	"vapro/internal/obs"
	"vapro/internal/trace"
)

// Server intake: batches are staged on one mutex-guarded list (a short
// critical section, so concurrent clients never wait on the graph) and
// merged into the graph in arrival order by whichever consumer gets the
// graph lock without waiting. EXPERIMENTS "What the intake's knobs were
// worth" has the measurements behind both constants and behind staging
// itself.
const (
	// intakeMaxStaged bounds the staged-batch backlog: a consumer that
	// finds the backlog at the bound drains synchronously (backpressure
	// instead of unbounded buffering).
	intakeMaxStaged = 256
	// intakeFreeBuffers bounds the drained staging buffers kept for
	// reuse: one per concurrent feeder up to the 8 the intake was
	// measured with, so a burst's extra buffers go back to the GC.
	intakeFreeBuffers = 8
)

// stagedBatch is one client batch waiting to be merged.
type stagedBatch struct {
	bytes  int
	frags  []trace.Fragment
	tc     TraceCtx // provenance of a sampled traced batch
	traced bool
}

// stage is the shared staging path; traced batches carry their
// provenance context into the staged entry so the drain can stamp the
// remaining journey hops.
func (pl *plane) stage(frags []trace.Fragment, bytes int, tc TraceCtx, traced bool) {
	var cp []trace.Fragment
	select {
	case cp = <-pl.free:
	default:
	}
	// A buffer too small (or none) is replaced by append, which does not
	// zero the pointer-free rows it is about to overwrite.
	cp = append(cp[:0], frags...)
	pl.smu.Lock()
	pl.staged = append(pl.staged, stagedBatch{bytes: bytes, frags: cp, tc: tc, traced: traced})
	n := len(pl.staged)
	pl.smu.Unlock()
	if traced {
		pl.met.Trace.Record(tc.Key(), tc.Rank, tc.FlushNS, obs.HopStage)
	}
	pl.met.IntakeBatches.Inc()
	pl.met.IntakeFragments.Add(uint64(len(cp)))
	pl.met.IntakeBytes.Add(uint64(bytes))
	pl.met.IntakeStagedPeak.SetMax(int64(n))

	if n >= pl.maxStaged {
		pl.met.IntakeStalls.Inc()
		pl.drain()
		return
	}
	// Opportunistic merge: whoever gets the graph lock without waiting
	// merges everyone's staged batches; contenders just stage and leave.
	if pl.mu.TryLock() {
		pl.drainLocked()
		pl.mu.Unlock()
	}
}

// stagedNow returns the current staged backlog.
func (pl *plane) stagedNow() int {
	pl.smu.Lock()
	defer pl.smu.Unlock()
	return len(pl.staged)
}

func (pl *plane) drain() {
	pl.mu.Lock()
	pl.drainLocked()
	pl.mu.Unlock()
}

// drainLocked merges every staged batch into the graph in arrival
// order: the staged list and the drain scratch swap, so stagers keep
// appending while the drain runs. Caller holds pl.mu.
func (pl *plane) drainLocked() {
	pl.smu.Lock()
	all := pl.staged
	pl.staged = pl.drained
	pl.smu.Unlock()
	if len(all) == 0 {
		pl.drained = all
		return
	}
	for i := range all {
		pl.graph.AddBatch(all[i].frags)
		pl.bytesIn += int64(all[i].bytes)
		pl.batches++
		if all[i].traced {
			tc := all[i].tc
			pl.met.Trace.MarkDrained(tc.Key(), tc.Rank, tc.FlushNS)
		}
		select {
		case pl.free <- all[i].frags:
		default:
		}
	}
	pl.met.IntakeDrains.Inc()
	pl.met.DrainBatches.Observe(int64(len(all)))
	// Clear, not just truncate: a slot left behind would keep its batch's
	// buffer reachable for as long as the plane lives.
	clear(all)
	pl.drained = all[:0]
}
