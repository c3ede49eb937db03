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
func (p *Pool) stage(frags []trace.Fragment, bytes int, tc TraceCtx, traced bool) {
	var cp []trace.Fragment
	select {
	case cp = <-p.free:
	default:
	}
	// A buffer too small (or none) is replaced by append, which does not
	// zero the pointer-free rows it is about to overwrite.
	cp = append(cp[:0], frags...)
	p.smu.Lock()
	p.staged = append(p.staged, stagedBatch{bytes: bytes, frags: cp, tc: tc, traced: traced})
	n := len(p.staged)
	p.smu.Unlock()
	if traced {
		p.met.Trace.Record(tc.Key(), tc.Rank, tc.FlushNS, obs.HopStage)
	}
	p.met.IntakeBatches.Inc()
	p.met.IntakeFragments.Add(uint64(len(cp)))
	p.met.IntakeBytes.Add(uint64(bytes))
	p.met.IntakeStagedPeak.SetMax(int64(n))

	if n >= p.maxStaged {
		p.met.IntakeStalls.Inc()
		p.drain()
		return
	}
	// Opportunistic merge: whoever gets the graph lock without waiting
	// merges everyone's staged batches; contenders just stage and leave.
	if p.mu.TryLock() {
		p.drainLocked()
		p.mu.Unlock()
	}
}

// stagedNow returns the current staged backlog.
func (p *Pool) stagedNow() int {
	p.smu.Lock()
	defer p.smu.Unlock()
	return len(p.staged)
}

func (p *Pool) drain() {
	p.mu.Lock()
	p.drainLocked()
	p.mu.Unlock()
}

// drainLocked merges every staged batch into the graph in arrival
// order: the staged list and the drain scratch swap, so stagers keep
// appending while the drain runs. Caller holds p.mu.
func (p *Pool) drainLocked() {
	p.smu.Lock()
	all := p.staged
	p.staged = p.drained
	p.smu.Unlock()
	if len(all) == 0 {
		p.drained = all
		return
	}
	for i := range all {
		p.graph.AddBatch(all[i].frags)
		p.bytesIn += int64(all[i].bytes)
		p.batches++
		if all[i].traced {
			tc := all[i].tc
			p.met.Trace.MarkDrained(tc.Key(), tc.Rank, tc.FlushNS)
		}
		select {
		case p.free <- all[i].frags:
		default:
		}
	}
	p.met.IntakeDrains.Inc()
	p.met.DrainBatches.Observe(int64(len(all)))
	// Clear, not just truncate: a slot left behind would keep its batch's
	// buffer reachable for as long as the pool lives.
	clear(all)
	p.drained = all[:0]
}
