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

// IntakeOptions tunes the server intake path. The old path serialized
// every client of a server behind one mutex for the whole graph append;
// intake now stages batches in striped shards (a short critical section
// per stripe) and merges them into the graph in arrival order either
// opportunistically on the consume path or on a background merger.
type IntakeOptions struct {
	// Shards stripes each server's staging area so concurrent Consume
	// calls from different clients contend only within a stripe. 0
	// means 8; 1 is the sequential reference mode (a single stripe,
	// still staged, bit-identical results).
	Shards int
	// Background moves graph merging to a dedicated goroutine per
	// server, taking it off the client consume path entirely. Pools
	// with background intake should be Closed to stop the mergers
	// (every read path still drains on demand, so results never depend
	// on merger timing).
	Background bool
	// MaxStaged bounds the per-server staged-batch backlog; a consumer
	// that finds the backlog at the bound performs a synchronous drain
	// (backpressure instead of unbounded buffering). 0 means 256.
	MaxStaged int
}

func (o IntakeOptions) normalized() IntakeOptions {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.MaxStaged <= 0 {
		o.MaxStaged = 256
	}
	return o
}

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
	id  int
	opt Options
	met *Metrics

	seq    atomic.Uint64
	staged atomic.Int64
	shards []intakeShard
	// free holds drained staging buffers for stage to reuse: a staged
	// copy is dead the moment AddBatch has written its rows into the
	// graph's columns. Its capacity is Intake.MaxStaged — no more
	// buffers than that are ever staged at once.
	free chan []trace.Fragment

	notify    chan struct{}
	done      chan struct{}
	mergerWG  sync.WaitGroup
	closeOnce sync.Once

	mu    sync.Mutex
	graph *stg.Graph
	// drained is drainLocked's scratch, kept (emptied) between sweeps.
	drained []stagedBatch
	// bytesIn tracks the transport volume for the storage-overhead
	// accounting of §6.2, measured over the encoded wire format.
	bytesIn int64
	batches int
}

func newServer(id int, opt Options, met *Metrics) *Server {
	opt.Intake = opt.Intake.normalized()
	if met == nil {
		met = NewMetrics() // standalone servers still count into something
	}
	s := &Server{
		id:     id,
		opt:    opt,
		met:    met,
		shards: make([]intakeShard, opt.Intake.Shards),
		free:   make(chan []trace.Fragment, opt.Intake.MaxStaged),
		graph:  stg.New(),
	}
	if opt.Intake.Background {
		s.notify = make(chan struct{}, 1)
		s.done = make(chan struct{})
		s.mergerWG.Add(1)
		go s.mergerLoop()
	}
	return s
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
	if cap(cp) < len(frags) {
		cp = make([]trace.Fragment, len(frags))
	}
	cp = cp[:len(frags)]
	copy(cp, frags)
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

	if s.notify != nil {
		select {
		case s.notify <- struct{}{}:
		default:
		}
		if int(n) >= s.opt.Intake.MaxStaged {
			s.met.IntakeStalls.Inc()
			s.met.IntakeSyncDrains.Inc()
			s.drain() // backpressure: the merger fell behind
		}
		return
	}
	if int(n) >= s.opt.Intake.MaxStaged {
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

func (s *Server) mergerLoop() {
	defer s.mergerWG.Done()
	for {
		select {
		case <-s.notify:
			s.drain()
		case <-s.done:
			s.drain()
			return
		}
	}
}

// close stops the background merger (if any) and drains what it left.
func (s *Server) close() {
	s.closeOnce.Do(func() {
		if s.done != nil {
			close(s.done)
			s.mergerWG.Wait()
		}
		s.drain()
	})
}
