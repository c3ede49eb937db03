package detect

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"vapro/internal/obs"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// equalResults is reflect.DeepEqual with one carve-out: heat-map cells
// are compared bitwise, because empty cells hold NaN and NaN != NaN
// would fail DeepEqual on otherwise identical results.
func equalResults(a, b *Result) bool {
	if len(a.Maps) != len(b.Maps) {
		return false
	}
	for c, ha := range a.Maps {
		hb, ok := b.Maps[c]
		if !ok || !equalHeatMaps(ha, hb) {
			return false
		}
	}
	ac, bc := *a, *b
	ac.Maps, bc.Maps = nil, nil
	return reflect.DeepEqual(&ac, &bc)
}

func equalHeatMaps(a, b *HeatMap) bool {
	if a.Class != b.Class || a.Ranks != b.Ranks || a.Windows != b.Windows ||
		a.Window != b.Window || a.Origin != b.Origin ||
		len(a.Cells) != len(b.Cells) || !reflect.DeepEqual(a.Stale, b.Stale) {
		return false
	}
	for i := range a.Cells {
		if math.Float64bits(a.Cells[i]) != math.Float64bits(b.Cells[i]) {
			return false
		}
	}
	return true
}

// TestAnalyzerIncrementalEquivalenceFuzz pins the whole incremental
// analysis plane — delta clustering plus the sample store's in-place
// advance (store.go) — against the batch path at the
// analyzer level: a persistent Analyzer re-run after every appended
// burst must return results bit-identical (reflect.DeepEqual, floats
// included) to a cold Analyzer forced onto the batch path over the same
// graph. Schedules mix out-of-order arrivals, rank gaps, dense ties,
// outage jumps (with matching Outages passed to both sides), window
// slicing, and occasional wholesale element rebases that bump the
// generation epoch and must force a prep rebuild.
func TestAnalyzerIncrementalEquivalenceFuzz(t *testing.T) {
	schedules := 160
	if testing.Short() {
		schedules = 30
	}
	// The fuzz is only meaningful if the delta path actually runs:
	// tally prep advances across every schedule and fail if the guard
	// conditions silently routed everything through rebuilds.
	var advances, rebuilds atomic.Uint64
	t.Cleanup(func() {
		if advances.Load() == 0 {
			t.Errorf("no prep advanced incrementally across %d schedules (rebuilds=%d): delta path never ran",
				schedules, rebuilds.Load())
		}
	})
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("sched%03d", sched), func(t *testing.T) {
			t.Parallel()
			runEquivSchedule(t, int64(7100+sched), &advances, &rebuilds)
		})
	}
}

func runEquivSchedule(t *testing.T, seed int64, advances, rebuilds *atomic.Uint64) {
	rng := rand.New(rand.NewSource(seed))
	ranks := 2 + rng.Intn(4)

	opt := DefaultOptions()
	opt.Window = sim.Duration(1+rng.Intn(20)) * sim.Millisecond
	opt.Threshold = []float64{0.7, 0.85, 0.95}[rng.Intn(3)]
	opt.MinRegionCells = 1 + rng.Intn(2)
	opt.Parallelism = rng.Intn(3) // 0 = GOMAXPROCS, 1 = sequential, 2
	if rng.Intn(4) == 0 {
		opt.Cluster.Threshold = 0.2
	}
	if rng.Intn(5) == 0 {
		opt.Cluster.MinFragments = 2
	}

	g := stg.New()
	inc := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	inc.SetMetrics(met)
	defer func() {
		advances.Add(met.PrepIncremental.Load())
		rebuilds.Add(met.PrepRebuilds.Load())
	}()

	// Per-rank virtual clocks; edges/vertices the schedule draws from.
	clock := make([]int64, ranks)
	edges := []trace.EdgeKey{{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 1}}
	vstates := []uint64{10, 11}

	bursts := 3 + rng.Intn(4)
	for b := 0; b < bursts; b++ {
		n := 1 + rng.Intn(50)
		batch := make([]trace.Fragment, 0, n)
		for i := 0; i < n; i++ {
			rank := rng.Intn(ranks)
			// Outage-style jumps and out-of-order starts.
			switch rng.Intn(10) {
			case 0:
				clock[rank] += int64(rng.Intn(40)) * 1_000_000 // gap
			case 1:
				clock[rank] -= int64(rng.Intn(3)) * 500_000 // out of order
				if clock[rank] < 0 {
					clock[rank] = 0
				}
			}
			el := int64(200_000 + rng.Intn(2_000_000))
			f := trace.Fragment{Rank: rank, Start: clock[rank], Elapsed: el}
			if rng.Intn(4) == 0 {
				// Vertex fragment (communication or IO).
				f.State = vstates[rng.Intn(len(vstates))]
				if rng.Intn(2) == 0 {
					f.Kind = trace.Comm
					f.Args = trace.Args{Op: trace.Op("Allreduce"), Bytes: 1 << uint(rng.Intn(4))}
				} else {
					f.Kind = trace.IO
					f.Args = trace.Args{Op: trace.Op("write"), Bytes: 4096}
				}
			} else {
				f.Kind = trace.Comp
				ek := edges[rng.Intn(len(edges))]
				f.From, f.State = ek.From, ek.To
				switch rng.Intn(3) {
				case 0: // zero-workload snippets
				case 1: // dense ties straddling the 5% threshold
					f.Counters.TotIns = uint64(1 + rng.Intn(4))
				default:
					class := uint64(1 + rng.Intn(3))
					f.Counters.TotIns = class*100_000 + uint64(rng.Intn(7000))
				}
			}
			clock[rank] += el
			batch = append(batch, f)
		}
		g.AddBatch(batch)

		// Occasionally rebase one edge wholesale (a fresh copy of its
		// log): the epoch bumps and the incremental analyzer must fall
		// back to a full prep rebuild, not reuse positions from the old
		// log.
		if rng.Intn(5) == 0 {
			if e := g.Edge(edges[rng.Intn(len(edges))]); e != nil && e.Log().Len() > 0 {
				g.AliasEdge(e.Key, trace.LogOf(e.Log().Slice()))
			}
		}

		// Some windows carry known outages; both sides see the same set.
		ropt := opt
		if rng.Intn(4) == 0 {
			ropt.Outages = []Outage{{
				Rank:  rng.Intn(ranks),
				Start: int64(rng.Intn(20)) * 1_000_000,
				End:   int64(30+rng.Intn(40)) * 1_000_000,
			}}
		}
		bopt := ropt
		bopt.DisableIncremental = true

		var got, want *Result
		if rng.Intn(2) == 0 {
			ws := int64(rng.Intn(30)) * 1_000_000
			we := ws + int64(10+rng.Intn(60))*1_000_000
			got = inc.RunWindow(g, ranks, ropt, ws, we)
			want = NewAnalyzer().RunWindow(g, ranks, bopt, ws, we)
		} else {
			got = inc.Run(g, ranks, ropt)
			want = NewAnalyzer().Run(g, ranks, bopt)
		}
		if !equalResults(got, want) {
			t.Fatalf("burst %d: incremental result diverged from batch path\nincremental: %+v\nbatch:       %+v",
				b, got, want)
		}
	}
}

// TestAnalyzerMixedMultiDEquivalenceFuzz mixes 1-D computation edges
// and multi-D single-class vertices (all-comm, all-IO) in the same
// windows and pins the persistent incremental analyzer bit-identical to
// a cold batch analyzer after every appended burst. Appends draw from a
// fixed per-element workload palette — the monitor's steady state — so
// the multi-D cluster advances must stay on the delta path: the test
// fails if any advance fell back to a full re-cluster, or if vertex
// preps never advanced incrementally at all.
func TestAnalyzerMixedMultiDEquivalenceFuzz(t *testing.T) {
	schedules := 60
	if testing.Short() {
		schedules = 12
	}
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("sched%03d", sched), func(t *testing.T) {
			t.Parallel()
			runMixedMultiDSchedule(t, int64(9400+sched))
		})
	}
}

func runMixedMultiDSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ranks := 2 + rng.Intn(4)

	opt := DefaultOptions()
	opt.Window = sim.Duration(2+rng.Intn(10)) * sim.Millisecond
	opt.Parallelism = rng.Intn(3)
	if rng.Intn(3) == 0 {
		opt.Cluster.UseExtraMetrics = true // 2-D computation vectors
	}

	// Fixed workload palettes: comp edges vary TotIns inside the 5%
	// band; vertices repeat exact (op, bytes, peer) argument vectors so
	// steady-state appends are pure absorptions on the multi-D path.
	edges := []trace.EdgeKey{{From: 1, To: 2}, {From: 2, To: 3}}
	type vclass struct {
		kind trace.Kind
		args trace.Args
	}
	vpal := map[uint64][]vclass{
		20: {
			{trace.Comm, trace.Args{Op: trace.Op("Allreduce"), Bytes: 1 << 12, Peer: -1}},
			{trace.Comm, trace.Args{Op: trace.Op("Send"), Bytes: 1 << 16, Peer: 1, Tag: 7}},
			{trace.Comm, trace.Args{Op: trace.Op("Recv"), Bytes: 256, Peer: 0, Tag: 7}},
		},
		21: {
			{trace.IO, trace.Args{Op: trace.Op("write"), Bytes: 1 << 20, FD: 3}},
			{trace.IO, trace.Args{Op: trace.Op("read"), Bytes: 4096, FD: 4}},
		},
	}

	g := stg.New()
	inc := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	inc.SetMetrics(met)

	clock := make([]int64, ranks)
	bursts := 4 + rng.Intn(4)
	for b := 0; b < bursts; b++ {
		n := 8 + rng.Intn(40)
		batch := make([]trace.Fragment, 0, n)
		for i := 0; i < n; i++ {
			rank := rng.Intn(ranks)
			el := int64(200_000 + rng.Intn(1_500_000))
			f := trace.Fragment{Rank: rank, Start: clock[rank], Elapsed: el}
			if rng.Intn(3) == 0 {
				state := []uint64{20, 21}[rng.Intn(2)]
				c := vpal[state][rng.Intn(len(vpal[state]))]
				f.State, f.Kind, f.Args = state, c.kind, c.args
			} else {
				ek := edges[rng.Intn(len(edges))]
				f.Kind, f.From, f.State = trace.Comp, ek.From, ek.To
				// Exact repeats: a steady state's fixed workloads re-emit
				// identical counter vectors, so no append can undercut a
				// resident seed (an in-band new minimum would legitimately
				// restructure the partition and force a fallback).
				f.Counters.TotIns = uint64(1+rng.Intn(3)) * 400_000
				f.Counters.LoadStores = f.Counters.TotIns / 3
			}
			clock[rank] += el
			batch = append(batch, f)
		}
		g.AddBatch(batch)

		bopt := opt
		bopt.DisableIncremental = true
		var got, want *Result
		if rng.Intn(2) == 0 {
			ws := int64(rng.Intn(20)) * 1_000_000
			we := ws + int64(5+rng.Intn(40))*1_000_000
			got = inc.RunWindow(g, ranks, opt, ws, we)
			want = NewAnalyzer().RunWindow(g, ranks, bopt, ws, we)
		} else {
			got = inc.Run(g, ranks, opt)
			want = NewAnalyzer().Run(g, ranks, bopt)
		}
		if !equalResults(got, want) {
			t.Fatalf("burst %d: mixed-element incremental result diverged from batch", b)
		}
	}
	if met.PrepIncremental.Load() == 0 {
		t.Fatalf("no prep advanced incrementally across %d bursts", bursts)
	}
	if _, fallbacks, _ := inc.Cache().IncStats(); fallbacks != 0 {
		t.Fatalf("steady-state palette appends hit %d fallbacks", fallbacks)
	}
	if hits, _, _ := inc.Cache().IncStats(); hits == 0 {
		t.Fatalf("cluster cache never advanced incrementally")
	}
}

// TestMonitorIncrementalIdentity drives the same fragment stream
// through two monitors — one on the incremental plane, one forced onto
// the batch path — and requires the emitted event streams to match
// exactly. This is the end-to-end form of the equivalence guarantee:
// online alerting behavior may not depend on which analysis path ran.
func TestMonitorIncrementalIdentity(t *testing.T) {
	run := func(disable bool) []Event {
		a := NewAnalyzer()
		opt := DefaultOptions()
		opt.Window = 5 * sim.Millisecond
		opt.DisableIncremental = disable
		g := stg.New()
		rng := rand.New(rand.NewSource(42))
		var events []Event
		clock := make([]int64, 4)
		for b := 0; b < 12; b++ {
			var batch []trace.Fragment
			for i := 0; i < 40; i++ {
				rank := rng.Intn(4)
				el := int64(900_000 + rng.Intn(200_000))
				if rank == 2 && b >= 6 {
					el *= 2 // rank 2 degrades mid-run
				}
				batch = append(batch, trace.Fragment{
					Rank: rank, Kind: trace.Comp, From: 1, State: 2,
					Start: clock[rank], Elapsed: el,
					Counters: trace.CountersView{TotIns: 500_000 + uint64(rng.Intn(5000))},
				})
				clock[rank] += el
			}
			g.AddBatch(batch)
			res := a.RunWindow(g, 4, opt, int64(b)*10_000_000, int64(b+1)*10_000_000)
			for _, reg := range res.Regions {
				events = append(events, Event{Regions: []Region{reg}})
			}
		}
		return events
	}
	if inc, batch := run(false), run(true); !reflect.DeepEqual(inc, batch) {
		t.Fatalf("event streams diverge: incremental %d events, batch %d events", len(inc), len(batch))
	}
}

// Event is a minimal event record for the identity test above (the
// collector's Monitor has its own richer Event type; this test stays
// inside the detect package to keep the dependency direction clean).
type Event struct{ Regions []Region }

// FuzzAnalyzerEquivalence is the native form of the equivalence fuzzes
// above: the input bytes script the bursts, so the engine steers which
// element a fragment lands on, its kind, its workload class and when a
// window closes. data[0] picks options (bit 0 UseExtraMetrics, bit 1
// MinFragments=2; the pass runs sequentially, so coverage is a function
// of the input and the engine's minimizer converges); every following
// six bytes are one fragment —
//
//	kind     %5: Comp, Comm, IO, Sync, Probe
//	element  %6: three edges, three vertices, whatever the kind (each is
//	             a log of the harness's own, aliased in, so any element
//	             can be single-class, mixed, turn mixed, or stay empty)
//	rank     %4
//	workload     TotIns / argument class (low bits a band inside it)
//	elapsed      ×10 µs; the top bit first jumps the rank's clock 5 ms
//	window       0: the burst goes on; 255: analyse the whole run;
//	             else analyse [lo nibble × 2 ms, + (hi nibble+1) × 4 ms)
//
// — and after every analysed burst (the first 24 of a script, and its
// end: a cold oracle per fragment would make long scripts quadratic)
// one warm analyzer must agree bit for bit with a cold
// DisableIncremental oracle. The seed corpus under
// testdata/fuzz holds the shapes of TestSampleStoreHatchEquivalenceFuzz.
func FuzzAnalyzerEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+6*512 {
			return
		}
		opt := DefaultOptions()
		opt.Window = 2 * sim.Millisecond
		opt.Cluster.UseExtraMetrics = data[0]&1 != 0
		if data[0]&2 != 0 {
			opt.Cluster.MinFragments = 2
		}
		opt.Parallelism = 1
		bopt := opt
		bopt.DisableIncremental = true

		const ranks = 4
		g := stg.New()
		var logs [6]*trace.Log
		for i := range logs {
			logs[i] = trace.NewLog(nil)
		}
		inc := NewAnalyzer()
		var clock [ranks]int64
		analyse := func(w byte) {
			for i, l := range logs {
				if i < 3 {
					g.AliasEdge(trace.EdgeKey{From: uint64(i + 1), To: uint64(i + 2)}, l.View())
				} else {
					g.AliasVertex(uint64(100+i), trace.Comm, l.View())
				}
			}
			var got, want *Result
			if w == 255 {
				got = inc.Run(g, ranks, opt)
				want = NewAnalyzer().Run(g, ranks, bopt)
			} else {
				ws := int64(w&15) * 2_000_000
				we := ws + int64(w>>4+1)*4_000_000
				got = inc.RunWindow(g, ranks, opt, ws, we)
				want = NewAnalyzer().RunWindow(g, ranks, bopt, ws, we)
			}
			if !equalResults(got, want) {
				t.Fatalf("window %d: warm analyzer diverged from the cold oracle", w)
			}
		}
		pending, analysed := false, 0
		for rec := data[1:]; len(rec) >= 6; rec = rec[6:] {
			kind := []trace.Kind{trace.Comp, trace.Comm, trace.IO, trace.Sync, trace.Probe}[rec[0]%5]
			elem, rank, wl := int(rec[1]%6), int(rec[2]%4), uint64(rec[3])
			if rec[4]&0x80 != 0 {
				clock[rank] += 5_000_000
			}
			fr := trace.Fragment{
				Rank: rank, Kind: kind, Start: clock[rank], Elapsed: int64(rec[4]&0x7f) * 10_000,
				From: uint64(elem + 1), State: uint64(elem + 2),
			}
			clock[rank] += fr.Elapsed
			switch kind {
			case trace.Comp, trace.Probe:
				fr.Counters.TotIns = (wl&3+1)*100_000 + wl>>2*500
				fr.Counters.LoadStores = fr.Counters.TotIns / 3
			case trace.IO:
				fr.Args = trace.Args{Op: trace.Op("write"), Bytes: 4096 << (wl & 3), FD: 3}
			default:
				fr.Args = trace.Args{Op: trace.Op("Allreduce"), Bytes: 1 << (10 + wl&3), Peer: -1}
			}
			logs[elem].Append(&fr)
			if pending = rec[5] == 0 || analysed == 24; !pending {
				analyse(rec[5])
				analysed++
			}
		}
		if pending {
			analyse(255)
		}
	})
}
