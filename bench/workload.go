package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"vapro/internal/sim"
	"vapro/internal/trace"
)

// nominalSeconds is the run length the workload constants below are
// sized for; it equals run_seconds in BENCHMARK.json. Other -seconds
// values scale the amount of work linearly.
const nominalSeconds = 16

// population selects the fragment mix of a stream.
type population int

const (
	// popComp is the tickStream.next population of the root
	// bench_test.go: 31/32 computation fragments over 8 edges × 5 TOT_INS
	// workload classes, 1/32 Allreduce.
	popComp population = iota
	// popCommIO is its nextCommHeavy population: 5/8 communication with
	// 4-field arguments, 2/8 IO, 1/8 computation.
	popCommIO
)

// injection is a deterministic slowdown applied while generating: the
// fragments of one kind, on a block of ranks, whose start falls inside
// a share of the stream's nominal virtual span, run factor× longer.
type injection struct {
	kind             trace.Kind
	rankLo, rankHi   int // [rankLo, rankHi)
	factor           float64
	fromFrac, toFrac float64
}

// spec is one workload's definition. Every field is a constant of the
// benchmark: later issues compare against numbers measured with exactly
// these values.
type spec struct {
	name, why string

	ranks, shards int
	batch         int // fragments per client flush
	period        sim.Duration
	overlap       sim.Duration
	bucket        sim.Duration // heat-map cell width (detect.Options.Window)
	pop           population
	journal       bool
	inject        *injection

	// satFrags is the closed-loop epoch size and pacedRate/pacedSeconds
	// the open-loop schedule, all at nominalSeconds.
	satFrags     int
	pacedRate    int // fragments per second
	pacedSeconds float64

	// restart marks the restart-query shape: satFrags fragments are
	// journaled during set-up and replayed; the paced phase then
	// resumes the stream on the replayed server.
	restart bool
	queries int // historical range queries measured (restart-query only)
}

func (sp *spec) stride() sim.Duration { return sp.period - sp.overlap }

// pacedInterval is the open loop's spacing between consecutive batches.
func (sp *spec) pacedInterval() time.Duration {
	return time.Duration(float64(time.Second) * float64(sp.batch) / float64(sp.pacedRate))
}

// roundFrags is one batch from every rank.
func (sp *spec) roundFrags() int { return sp.ranks * sp.batch }

var specs = []*spec{
	{
		name:  "comp-steady",
		why:   "paper's common case: computation fragments, 1-D incremental clustering, no journal, one plane",
		ranks: 64, shards: 1, batch: 256,
		period: 500 * sim.Millisecond, overlap: 250 * sim.Millisecond, bucket: 50 * sim.Millisecond,
		pop:      popComp,
		satFrags: 448_000, pacedRate: 120_000, pacedSeconds: 8,
	},
	{
		name:  "commio-journal",
		why:   "comm/IO-heavy frames: multi-D clustering, delivery journal under the wire lock, IO events diagnosed",
		ranks: 64, shards: 1, batch: 256,
		period: 500 * sim.Millisecond, overlap: 250 * sim.Millisecond, bucket: 100 * sim.Millisecond,
		pop:      popCommIO,
		journal:  true,
		inject:   &injection{kind: trace.IO, rankLo: 30, rankHi: 34, factor: 1.5, fromFrac: 0.4, toFrac: 0.6},
		satFrags: 400_000, pacedRate: 100_000, pacedSeconds: 8,
	},
	{
		name:  "sharded-wide",
		why:   "rank axis: 512 ranks over 2 shards, small batches, O(ranks) watermark, strip merge and region stitch",
		ranks: 512, shards: 2, batch: 64,
		period: 200 * sim.Millisecond, overlap: 100 * sim.Millisecond, bucket: 50 * sim.Millisecond,
		pop:      popComp,
		inject:   &injection{kind: trace.Comp, rankLo: 96, rankHi: 160, factor: 2, fromFrac: 0.375, toFrac: 0.625},
		satFrags: 852_000, pacedRate: 120_000, pacedSeconds: 12,
	},
	{
		name:  "restart-query",
		why:   "reads beside writes: journal replay into a fresh server, historical range queries, stream resumed after",
		ranks: 64, shards: 1, batch: 256,
		period: 500 * sim.Millisecond, overlap: 250 * sim.Millisecond, bucket: 100 * sim.Millisecond,
		pop:      popCommIO,
		journal:  true,
		inject:   &injection{kind: trace.IO, rankLo: 30, rankHi: 34, factor: 1.5, fromFrac: 0.4, toFrac: 0.6},
		satFrags: 400_000, pacedRate: 80_000, pacedSeconds: 6,
		restart: true,
		queries: 60,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// minRounds keeps scaled-down runs (the tier-1 smoke) long enough that
// a few windows close, the injected interval spans whole windows and a
// two-period range query fits: over two and a half periods of virtual
// time at the nominal 1 ms per fragment.
func (sp *spec) minRounds() int {
	return int(2.6*float64(sp.period)/float64(sim.Millisecond))/sp.batch + 1
}

// sizing is a workload's amount of work at one -seconds × -scale.
type sizing struct {
	satRounds, pacedRounds int
}

func (sp *spec) size(seconds int, scale float64) sizing {
	f := scale * float64(seconds) / nominalSeconds
	rounds := func(frags float64) int {
		n := int(frags*f) / sp.roundFrags()
		if n < sp.minRounds() {
			n = sp.minRounds()
		}
		return n
	}
	return sizing{
		satRounds:   rounds(float64(sp.satFrags)),
		pacedRounds: rounds(float64(sp.pacedRate) * sp.pacedSeconds),
	}
}

// stream is a fully generated input: the program under test receives
// only these batches. Batch b is one client flush of rank b%ranks; the
// order of b is the order in which batches are due.
type stream struct {
	sp     *spec
	rounds int
	frags  []trace.Fragment
	sha    string

	// injFrom/injTo is the injected interval in virtual ns (0,0 without
	// an injection).
	injFrom, injTo int64
	// closing[w] is the batch that lifts the all-rank watermark past the
	// end of window w — the generator tracks the virtual clocks, so it
	// knows which flush makes each window analysable.
	closing []int
}

func (s *stream) batches() int { return s.rounds * s.sp.ranks }

func (s *stream) batch(b int) (rank int, frags []trace.Fragment) {
	n := s.sp.batch
	return b % s.sp.ranks, s.frags[b*n : (b+1)*n : (b+1)*n]
}

// injectionWithin reports whether the first `batches` batches run past
// the end of the injected interval, so a server that received them must
// have seen (and reported) it. Without an injection the check for "no
// events" always applies.
func (s *stream) injectionWithin(batches int) bool {
	if s.sp.inject == nil {
		return true
	}
	nominalEnd := int64(batches/s.sp.ranks) * int64(s.sp.batch) * int64(sim.Millisecond)
	return nominalEnd >= s.injTo+int64(s.sp.period)
}

// windowsClosedBy returns how many windows are analysable once the
// first `batches` batches are delivered.
func (s *stream) windowsClosedBy(batches int) int {
	n := 0
	for n < len(s.closing) && s.closing[n] < batches {
		n++
	}
	return n
}

// generate builds the stream for (spec, seed, rounds). Each rank draws
// from its own split of the seeded generator, so the content of a
// rank's batches does not depend on how ranks interleave.
func generate(sp *spec, seed uint64, rounds int) *stream {
	s := &stream{sp: sp, rounds: rounds, frags: make([]trace.Fragment, 0, rounds*sp.roundFrags())}
	base := sim.NewRNG(seed*0x9E3779B97F4A7C15 + uint64(len(sp.name)))
	rngs := make([]*sim.RNG, sp.ranks)
	for r := range rngs {
		rngs[r] = base.Split(uint64(r))
	}
	if in := sp.inject; in != nil {
		span := int64(rounds) * int64(sp.batch) * int64(sim.Millisecond)
		snap := func(frac float64) int64 {
			st := int64(sp.stride())
			return int64(frac*float64(span)) / st * st
		}
		s.injFrom, s.injTo = snap(in.fromFrac), snap(in.toFrac)
	}
	clocks := make([]int64, sp.ranks)
	for round := 0; round < rounds; round++ {
		for rank := 0; rank < sp.ranks; rank++ {
			for i := 0; i < sp.batch; i++ {
				f := nextFragment(sp.pop, rngs[rank], rank, clocks[rank])
				if in := sp.inject; in != nil && f.Kind == in.kind &&
					rank >= in.rankLo && rank < in.rankHi && f.Start >= s.injFrom && f.Start < s.injTo {
					f.Elapsed = int64(float64(f.Elapsed) * in.factor)
				}
				clocks[rank] += f.Elapsed
				s.frags = append(s.frags, f)
			}
		}
	}
	s.closing = closingBatches(s)
	s.sha = s.digest()
	return s
}

// Element palette of the generated populations, as in the root
// bench_test.go tickStream.
const (
	genEdges      = 8
	genCommStates = 8
	genIOStates   = 4
)

func nextFragment(pop population, rng *sim.RNG, rank int, clock int64) trace.Fragment {
	f := trace.Fragment{Rank: rank, Start: clock, Elapsed: int64(900_000 + rng.Intn(200_000))}
	comp := func() {
		e := rng.Intn(genEdges)
		f.Kind = trace.Comp
		f.From, f.State = uint64(e+1), uint64(e+2)
		class := uint64(1+rng.Intn(5)) * 1_000_000
		f.Counters = trace.CountersView{TotIns: class + uint64(rng.Intn(1000))}
	}
	switch pop {
	case popComp:
		if rng.Intn(32) == 0 {
			f.Kind = trace.Comm
			f.State = uint64(1000 + rng.Intn(genCommStates))
			f.Args = trace.Args{Op: trace.OpAllreduce, Bytes: 4096}
		} else {
			comp()
		}
	case popCommIO:
		switch r := rng.Intn(8); {
		case r < 5:
			st := rng.Intn(genCommStates)
			f.Kind = trace.Comm
			f.State = uint64(1000 + st)
			f.Args = trace.Args{Op: trace.OpAllreduce, Bytes: 1 << uint(10+rng.Intn(4)), Peer: -1, Tag: st}
		case r < 7:
			st := rng.Intn(genIOStates)
			f.Kind = trace.IO
			f.State = uint64(2000 + st)
			f.Args = trace.Args{Op: trace.OpWrite, Bytes: 1 << uint(12+rng.Intn(3)), FD: 3 + st}
		default:
			comp()
		}
	}
	return f
}

// closingBatches replays the virtual clocks batch by batch, exactly as
// the monitor's watermark does, and records for every window the batch
// after which min-over-ranks(high) first reaches the window's end.
func closingBatches(s *stream) []int {
	sp := s.sp
	high := make([]int64, sp.ranks)
	var closing []int
	next := int64(sp.period) // end of the next window to close
	for b := 0; b < s.batches(); b++ {
		rank, frags := s.batch(b)
		for i := range frags {
			if e := frags[i].End(); e > high[rank] {
				high[rank] = e
			}
		}
		if b < sp.ranks-1 {
			continue // the monitor reports no watermark until every rank has been seen
		}
		wm := high[0]
		for _, h := range high[1:] {
			if h < wm {
				wm = h
			}
		}
		for wm >= next {
			closing = append(closing, b)
			next += int64(sp.stride())
		}
	}
	return closing
}

// digest hashes the fields the generator sets, in stream order.
func (s *stream) digest() string {
	h := sha256.New()
	var buf [8 * 9]byte
	for i := range s.frags {
		f := &s.frags[i]
		for j, v := range [...]uint64{
			uint64(f.Rank), uint64(f.Kind), f.From, f.State, uint64(f.Start), uint64(f.Elapsed),
			f.Counters.TotIns, uint64(f.Args.Bytes),
			uint64(f.Args.Tag)<<32 | uint64(uint32(f.Args.FD)),
		} {
			binary.LittleEndian.PutUint64(buf[j*8:], v)
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *stream) String() string {
	return fmt.Sprintf("%s: %d rounds × %d ranks × %d = %d fragments, %d windows",
		s.sp.name, s.rounds, s.sp.ranks, s.sp.batch, len(s.frags), len(s.closing))
}
