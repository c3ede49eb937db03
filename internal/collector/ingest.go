package collector

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"vapro/internal/obs"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// Server intake: batches are staged in striped shards (a short critical
// section per stripe, so concurrent clients of one server contend only
// within a stripe) and merged into the graph in arrival order by
// whichever consumer gets the graph lock without waiting. EXPERIMENTS
// "What the intake's knobs were worth" has the measurements behind both
// constants and behind staging itself.
const (
	// intakeStripes is the staging stripe count per server: at 2 and 8
	// concurrent feeders it beats a single stripe, and a sequential
	// feeder builds the same graph either way.
	intakeStripes = 8
	// intakeMaxStaged bounds a server's staged-batch backlog: a consumer
	// that finds the backlog at the bound drains synchronously
	// (backpressure instead of unbounded buffering).
	intakeMaxStaged = 256
)

// stagedBatch is one client batch waiting to be merged. seq is the
// arrival stamp: drains apply batches in seq order, so a sequential
// feeder produces exactly the graph the old directly-locked path built.
type stagedBatch struct {
	seq    uint64
	bytes  int
	frags  []trace.Fragment
	tc     TraceCtx // provenance of a sampled traced batch
	traced bool
}

type intakeShard struct {
	mu      sync.Mutex
	batches []stagedBatch
	// Pad to a full 64 bytes (8-byte mutex + 24-byte slice header + 32)
	// so neighbouring stripe locks never share a cache line.
	_ [32]byte
}

// Server is one analysis server process.
type Server struct {
	met *Metrics

	seq    atomic.Uint64
	staged atomic.Int64
	shards []intakeShard
	// maxStaged is the backlog bound, intakeMaxStaged in production;
	// in-package tests shrink it (and resize shards) to force the
	// backpressure path or a single stripe.
	maxStaged int
	// free holds drained staging buffers for stage to reuse: a staged
	// copy is dead the moment AddBatch has written its rows into the
	// graph's columns. It retains at most intakeStripes of them. Up to
	// maxStaged can be staged at once (a drain preempted while every
	// connection keeps staging), and keeping them all would pin a
	// burst's buffers for the server's lifetime; past the bound a drained
	// buffer goes back to the GC.
	free chan []trace.Fragment

	mu    sync.Mutex
	graph *stg.Graph
	// drained is drainLocked's scratch, kept (emptied) between sweeps.
	drained []stagedBatch
	// bytesIn tracks the transport volume for the storage-overhead
	// accounting of §6.2, measured over the encoded wire format.
	bytesIn int64
	batches int
}

func newServer(met *Metrics) *Server {
	return &Server{
		met:       met,
		shards:    make([]intakeShard, intakeStripes),
		maxStaged: intakeMaxStaged,
		free:      make(chan []trace.Fragment, intakeStripes),
		graph:     stg.New(),
	}
}

// consume stages one batch. The encoded size is measured here (outside
// every lock) so Stats reports real wire bytes.
func (s *Server) consume(rank int, frags []trace.Fragment) {
	s.consumeSized(rank, frags, trace.BatchWireSize(rank, frags))
}

// consumeSized stages a batch whose encoded size is already known (the
// wire server measured the payload it decoded).
func (s *Server) consumeSized(rank int, frags []trace.Fragment, bytes int) {
	s.stage(rank, frags, bytes, TraceCtx{}, false)
}

// stage is the shared staging path; traced batches carry their
// provenance context into the staged entry so the drain can stamp the
// remaining journey hops.
func (s *Server) stage(rank int, frags []trace.Fragment, bytes int, tc TraceCtx, traced bool) {
	var cp []trace.Fragment
	select {
	case cp = <-s.free:
	default:
	}
	// A buffer too small (or none) is replaced by append, which does not
	// zero the pointer-free rows it is about to overwrite.
	cp = append(cp[:0], frags...)
	sh := &s.shards[uint(rank)%uint(len(s.shards))]
	sh.mu.Lock()
	sh.batches = append(sh.batches, stagedBatch{seq: s.seq.Add(1), bytes: bytes, frags: cp, tc: tc, traced: traced})
	sh.mu.Unlock()
	if traced {
		s.met.Trace.Record(tc.Key(), tc.Rank, tc.FlushNS, obs.HopStage)
	}
	n := s.staged.Add(1)
	s.met.IntakeBatches.Inc()
	s.met.IntakeFragments.Add(uint64(len(cp)))
	s.met.IntakeBytes.Add(uint64(bytes))
	s.met.IntakeStagedPeak.SetMax(n)

	if int(n) >= s.maxStaged {
		s.met.IntakeStalls.Inc()
		s.drain()
		return
	}
	// Opportunistic merge: whoever gets the graph lock without waiting
	// merges everyone's staged batches; contenders just stage and leave.
	if s.mu.TryLock() {
		s.drainLocked()
		s.mu.Unlock()
	}
}

func (s *Server) drain() {
	s.mu.Lock()
	s.drainLocked()
	s.mu.Unlock()
}

// drainLocked merges every staged batch into the graph in arrival
// order. Caller holds s.mu.
func (s *Server) drainLocked() {
	all := s.drained
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if len(sh.batches) > 0 {
			all = append(all, sh.batches...)
			// Clear, not just truncate: a slot left behind would keep its
			// batch's buffer reachable for as long as the stripe lives.
			clear(sh.batches)
			sh.batches = sh.batches[:0]
		}
		sh.mu.Unlock()
	}
	if len(all) == 0 {
		return
	}
	slices.SortFunc(all, func(a, b stagedBatch) int { return cmp.Compare(a.seq, b.seq) })
	for i := range all {
		s.graph.AddBatch(all[i].frags)
		s.bytesIn += int64(all[i].bytes)
		s.batches++
		if all[i].traced {
			tc := all[i].tc
			s.met.Trace.MarkDrained(tc.Key(), tc.Rank, tc.FlushNS)
		}
		select {
		case s.free <- all[i].frags:
		default:
		}
	}
	s.staged.Add(int64(-len(all)))
	s.met.IntakeDrains.Inc()
	s.met.DrainBatches.Observe(int64(len(all)))
	clear(all)
	s.drained = all[:0]
}
