package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vapro/internal/obs"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// sliceRun feeds a materialized, already-ordered sample slice to the
// merge.
type sliceRun struct{ s []Sample }

func (r *sliceRun) next(dst *Sample) bool {
	if len(r.s) == 0 {
		return false
	}
	*dst = r.s[0]
	r.s = r.s[1:]
	return true
}

// stableSortSamples is the typed reference: a stable sampleLess sort, so
// samples equal under sampleLess keep their input order.
func stableSortSamples(s []Sample) { slices.SortStableFunc(s, compareSamples) }

// checkMergeRuns merges the given runs (each sorted here first, so any
// partition is a legal input) and requires the result to equal a stable
// sampleLess sort of their concatenation: the merge's order is
// sampleLess, and samples it cannot tell apart keep run order.
func checkMergeRuns(t *testing.T, m *runMerger, runs [][]Sample) {
	t.Helper()
	var want []Sample
	for _, r := range runs {
		stableSortSamples(r)
		want = append(want, r...)
	}
	stableSortSamples(want)
	for i := range runs {
		m.runs = append(m.runs, &sliceRun{runs[i]})
	}
	got := m.merge(nil)
	if len(got) != len(want) {
		t.Fatalf("merged %d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("sample %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(m.runs) != 0 {
		t.Fatalf("merge left %d runs queued", len(m.runs))
	}
}

// mergeElems are the owning elements the tests draw from: edges sort
// before vertices, then by key.
var mergeElems = []ClusterRef{
	{IsEdge: true, Edge: trace.EdgeKey{From: 1, To: 2}},
	{IsEdge: true, Edge: trace.EdgeKey{From: 1, To: 3}},
	{IsEdge: true, Edge: trace.EdgeKey{From: 2, To: 1}},
	{Vertex: 1},
	{Vertex: 7},
}

func TestMergeRunsMatchesSort(t *testing.T) {
	var m runMerger // one merger throughout: the scratch must reset cleanly
	sample := func(start int64, elem, frag, rank int, elapsed int64) Sample {
		return Sample{Rank: rank, Start: start, Elapsed: elapsed, Perf: 1, ClusterRef: mergeElems[elem], FragIndex: frag}
	}
	t.Run("empty", func(t *testing.T) {
		checkMergeRuns(t, &m, nil)
		checkMergeRuns(t, &m, [][]Sample{nil, {}, nil})
	})
	t.Run("single run", func(t *testing.T) {
		checkMergeRuns(t, &m, [][]Sample{{sample(5, 0, 0, 0, 1), sample(5, 0, 1, 1, 1), sample(9, 3, 0, 0, 0)}})
	})
	t.Run("lockstep", func(t *testing.T) {
		// Every rank at the same Start in every phase, on edges and
		// vertices alike, zero-elapsed samples among them; one run per
		// element, plus empty runs between.
		runs := make([][]Sample, 2*len(mergeElems))
		for phase := int64(0); phase < 6; phase++ {
			for e := range mergeElems {
				for rank := 0; rank < 8; rank++ {
					frag := int(phase)*8 + rank
					runs[2*e] = append(runs[2*e], sample(phase*1000, e, frag, rank, int64(rank%2)*100))
				}
			}
		}
		checkMergeRuns(t, &m, runs)
	})
	t.Run("duplicates keep run order", func(t *testing.T) {
		// The cross-shard case: the same element and fragment index on
		// two shards. Rank tells the copies apart in the output.
		a := []Sample{sample(1, 0, 0, 10, 1), sample(2, 0, 1, 10, 1)}
		b := []Sample{sample(1, 0, 0, 20, 1), sample(2, 0, 1, 20, 1)}
		checkMergeRuns(t, &m, [][]Sample{a, b})
		checkMergeRuns(t, &m, [][]Sample{b, a})
	})
	t.Run("random partitions", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for iter := 0; iter < 300; iter++ {
			n := rng.Intn(200)
			runs := make([][]Sample, 1+rng.Intn(12))
			for i := 0; i < n; i++ {
				// Few distinct starts: ties everywhere.
				s := sample(int64(rng.Intn(6)), rng.Intn(len(mergeElems)), rng.Intn(10), rng.Intn(4), int64(rng.Intn(3)))
				r := rng.Intn(len(runs))
				runs[r] = append(runs[r], s)
			}
			checkMergeRuns(t, &m, runs)
		}
	})
}

// FuzzMergeRuns decodes four bytes per sample — start, element,
// fragment index, run — so the engine steers ties, duplicates and run
// partitions directly.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{3, 1, 2, 0, 3, 1, 2, 1, 3, 4, 2, 0, 3, 0, 9, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		runs := make([][]Sample, 5)
		for ; len(data) >= 4; data = data[4:] {
			r := int(data[3]) % len(runs)
			runs[r] = append(runs[r], Sample{
				Rank:       int(data[3] >> 4),
				Start:      int64(data[0] % 8),
				Elapsed:    int64(data[0] >> 6),
				ClusterRef: mergeElems[int(data[1])%len(mergeElems)],
				FragIndex:  int(data[2] % 8),
			})
		}
		checkMergeRuns(t, &runMerger{}, runs)
	})
}

// splitAndShuffle re-partitions a class's runs — every run cut at
// random points into shorter (still ordered) runs — and shuffles the
// run list.
func splitAndShuffle(rng *rand.Rand, most *int) func([]sampleRun) []sampleRun {
	var mu sync.Mutex // stage 2 calls in from one worker per class
	return func(runs []sampleRun) []sampleRun {
		mu.Lock()
		defer mu.Unlock()
		var out []sampleRun
		defer func() { *most = max(*most, len(out)) }()
		for _, r := range runs {
			er := r.(*elemRun)
			for len(er.sel) > 1 && rng.Intn(3) > 0 {
				k := 1 + rng.Intn(len(er.sel)-1)
				head := *er
				head.sel = er.sel[:k]
				out = append(out, &head)
				tail := *er
				tail.sel = er.sel[k:]
				er = &tail
			}
			out = append(out, er)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}

// tieGraph appends one burst of a lockstep-heavy population: several
// comp edges, an all-comm vertex and a mixed-kind vertex (three span
// indexes in one store), with starts drawn from a
// coarse grid so equal starts across ranks, edges and vertices are the
// norm.
func tieGraph(g *stg.Graph, rng *rand.Rand, ranks int, clock []int64) {
	n := 20 + rng.Intn(120)
	batch := make([]trace.Fragment, 0, n)
	for i := 0; i < n; i++ {
		rank := rng.Intn(ranks)
		el := int64(1+rng.Intn(3)) * 500_000
		if rng.Intn(10) == 0 {
			el = 0
		}
		f := trace.Fragment{Rank: rank, Start: clock[rank], Elapsed: el}
		switch rng.Intn(8) {
		case 0:
			f.Kind = trace.Comm
			f.State = 100
			f.Args = trace.Args{Op: trace.Op("Allreduce"), Bytes: 1 << uint(10+rng.Intn(2))}
		case 1:
			f.State = 101
			f.Kind = []trace.Kind{trace.Comm, trace.IO}[rng.Intn(2)]
			f.Args = trace.Args{Op: trace.Op("x"), Bytes: 4096}
		default:
			e := uint64(rng.Intn(3))
			f.Kind = trace.Comp
			f.From, f.State = e+1, e+2
			f.Counters.TotIns = uint64(1+rng.Intn(3))*1_000_000 + uint64(rng.Intn(500))
		}
		clock[rank] += el
		batch = append(batch, f)
	}
	g.AddBatch(batch)
}

// TestWindowStreamIsMultisetFunction pins what DESIGN §16 argues: a
// window's Result depends on which samples were selected, not on how
// they reached the merge. Two warm analyzers run the same schedule; one
// has every class's runs re-partitioned and shuffled before each merge.
// Heat-map cells (bitwise), stale marks, regions with their losses and
// sample lists, and the streams themselves must not move.
func TestWindowStreamIsMultisetFunction(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(5200 + seed))
			ranks := 2 + rng.Intn(5)
			opt := DefaultOptions()
			opt.Window = sim.Duration(1+rng.Intn(4)) * sim.Millisecond
			opt.Threshold = 0.9
			opt.Parallelism = rng.Intn(3)
			opt.Outages = []Outage{{Rank: 0, Start: 3_000_000, End: 5_000_000}}
			plain, permuted := NewAnalyzer(), NewAnalyzer()
			most := 0
			permuted.permuteRuns = splitAndShuffle(rand.New(rand.NewSource(seed)), &most)
			g := stg.New()
			clock := make([]int64, ranks)
			for burst := 0; burst < 6; burst++ {
				tieGraph(g, rng, ranks, clock)
				var want, got *Result
				if burst%2 == 0 {
					ws := int64(rng.Intn(20)) * 1_000_000
					we := ws + int64(5+rng.Intn(40))*1_000_000
					want = plain.RunWindow(g, ranks, opt, ws, we)
					got = permuted.RunWindow(g, ranks, opt, ws, we)
				} else {
					want = plain.Run(g, ranks, opt)
					got = permuted.Run(g, ranks, opt)
				}
				if !equalResults(got, want) {
					t.Fatalf("burst %d: result moved under a re-partitioned, shuffled merge", burst)
				}
			}
			if most < 8 {
				t.Fatalf("at most %d runs reached a merge; the schedule is not exercising it", most)
			}
		})
	}
}

// TestSteadyTickNeverComparisonSorts: on the incremental plane no
// sample stream is ever ordered by a comparison sort — not on 1-D
// computation schedules and not on comm/IO schedules (multi-D
// clustering) — while the DisableIncremental oracle sorts every stream
// it builds.
func TestSteadyTickNeverComparisonSorts(t *testing.T) {
	for _, pop := range []string{"comp", "commio"} {
		for sched := 0; sched < 40; sched++ {
			rng := rand.New(rand.NewSource(int64(8800 + sched)))
			const ranks = 4
			g := stg.New()
			inc, oracle := NewAnalyzer(), NewAnalyzer()
			incMet, oracleMet := NewMetrics(obs.NewRegistry()), NewMetrics(obs.NewRegistry())
			inc.SetMetrics(incMet)
			oracle.SetMetrics(oracleMet)
			opt := DefaultOptions()
			opt.Window = 5 * sim.Millisecond
			bopt := opt
			bopt.DisableIncremental = true
			clock := make([]int64, ranks)
			for tick := 0; tick < 8; tick++ {
				batch := make([]trace.Fragment, 0, 64)
				for i := 0; i < 64; i++ {
					rank := rng.Intn(ranks)
					el := int64(900_000 + rng.Intn(200_000))
					f := trace.Fragment{Rank: rank, Start: clock[rank], Elapsed: el}
					switch {
					case pop == "comp":
						e := uint64(rng.Intn(2))
						f.Kind = trace.Comp
						f.From, f.State = e+1, e+2
						f.Counters.TotIns = uint64(1+rng.Intn(3))*1_000_000 + uint64(rng.Intn(1000))
					case rng.Intn(3) == 0:
						f.Kind = trace.IO
						f.State = 2000
						f.Args = trace.Args{Op: trace.Op("write"), Bytes: 1 << uint(12+rng.Intn(2)), FD: 3}
					default:
						f.Kind = trace.Comm
						f.State = 1000
						f.Args = trace.Args{Op: trace.Op("Allreduce"), Bytes: 1 << uint(10+rng.Intn(3)), Peer: -1}
					}
					clock[rank] += el
					batch = append(batch, f)
				}
				g.AddBatch(batch)
				we := clock[0]
				got := inc.RunWindow(g, ranks, opt, we-20_000_000, we)
				want := oracle.RunWindow(g, ranks, bopt, we-20_000_000, we)
				if !equalResults(got, want) {
					t.Fatalf("%s sched %d tick %d: incremental diverged from the oracle", pop, sched, tick)
				}
			}
			if incMet.PrepIncremental.Load() == 0 {
				t.Fatalf("%s sched %d: the incremental plane never advanced", pop, sched)
			}
			if n := incMet.SortFallbacks.Load(); n != 0 {
				t.Fatalf("%s sched %d: incremental plane comparison-sorted %d streams", pop, sched, n)
			}
			if oracleMet.SortFallbacks.Load() == 0 {
				t.Fatalf("%s sched %d: the oracle did not count its sorts", pop, sched)
			}
		}
	}
}

// TestWindowMergeAllocs pins the stage-2 merge of a warm window: with
// the output slice in hand it allocates nothing — heads and heap are the
// analyzer's reused scratch, samples are derived straight into it.
func TestWindowMergeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const ranks = 8
	g := stg.New()
	clock := make([]int64, ranks)
	a := NewAnalyzer()
	opt := DefaultOptions()
	for burst := 0; burst < 12; burst++ {
		tieGraph(g, rng, ranks, clock)
		a.Run(g, ranks, opt) // many advances: many segments
	}
	var tmpl []elemRun
	for _, p := range a.preps {
		var out elemOut
		p.window(0, clock[0], &out)
		tmpl = append(tmpl, out.runs[Computation]...)
	}
	if len(tmpl) < 4 {
		t.Fatalf("only %d computation runs; the window is not merging", len(tmpl))
	}
	n := 0
	for i := range tmpl {
		n += len(tmpl[i].sel)
	}
	runs := make([]elemRun, len(tmpl))
	dst := make([]Sample, 0, n)
	mg := &a.merge[Computation]
	merge := func() {
		copy(runs, tmpl)
		for i := range runs {
			mg.runs = append(mg.runs, &runs[i])
		}
		dst = mg.merge(dst[:0])
	}
	merge() // warm the scratch
	if avg := testing.AllocsPerRun(20, merge); avg != 0 {
		t.Fatalf("warm window merge allocated %.1f times for %d samples over %d runs; want 0", avg, n, len(runs))
	}
	if len(dst) != n || !slices.IsSortedFunc(dst, compareSamples) {
		t.Fatalf("merged %d of %d samples, or out of order", len(dst), n)
	}
}
