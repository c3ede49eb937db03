package diagnose

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vapro/internal/trace"
)

func tolClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// fullRankFactors is a factor set with no built-in linear identity
// (PageFault and ContextSwitch are exact sums of their children, which
// makes designs containing both levels singular by construction — under
// a singular design the VIF drop order depends on rounding, so the
// equivalence fuzz sticks to the leaf counters).
func fullRankFactors() []Factor {
	return []Factor{Suspension, Signal,
		SoftPageFault, HardPageFault, VoluntaryCS, InvoluntaryCS}
}

// synthClusters builds random fixed-workload clusters whose OS counters
// have a planted linear effect on elapsed time, plus tiny clusters
// (below the 3-member pooling floor), occasionally a constant column,
// and optionally an asymmetric near-collinear relation (vol ≈ 2·soft +
// invol) that triggers the Farrar–Glauber drop loop with an unambiguous
// worst-VIF victim.
func synthClusters(rng *rand.Rand) [][]trace.Fragment {
	nc := 2 + rng.Intn(4)
	clusters := make([][]trace.Fragment, 0, nc)
	collinear := rng.Intn(3) == 0
	constSig := rng.Intn(4) == 0
	for c := 0; c < nc; c++ {
		n := 3 + rng.Intn(30)
		if rng.Intn(5) == 0 {
			n = 1 + rng.Intn(2) // below the pooled floor: must be skipped
		}
		base := int64(1_000_000 * (c + 1))
		frags := make([]trace.Fragment, n)
		for i := range frags {
			susp := rng.Int63n(200_000)
			soft := uint64(rng.Intn(40))
			hard := uint64(rng.Intn(6))
			vol := uint64(rng.Intn(30))
			invol := uint64(rng.Intn(12))
			sig := uint64(rng.Intn(4))
			if constSig {
				sig = 2
			}
			if collinear {
				// Near-collinear, not exact: the worst VIF is clearly
				// vol's, so the drop choice is stable under the 1e-9
				// numeric daylight between the batch and moment paths.
				vol = 2*soft + invol + uint64(rng.Intn(3))
			}
			el := base + susp + int64(soft)*2_000 + int64(hard)*40_000 +
				int64(vol)*1_500 + int64(invol)*9_000 + rng.Int63n(30_000)
			frags[i] = trace.Fragment{
				Rank: i % 4, Kind: trace.Comp, From: 1, State: 2,
				Start: int64(i) * base, Elapsed: el,
				Counters: trace.CountersView{
					TotIns:       uint64(base),
					SuspensionNS: susp,
					SoftPF:       soft,
					HardPF:       hard,
					VolCS:        vol,
					InvolCS:      invol,
					Signals:      sig,
				},
			}
		}
		clusters = append(clusters, frags)
	}
	return clusters
}

func momentStreams(clusters [][]trace.Fragment, factors []Factor) []*ClusterMoments {
	streams := make([]*ClusterMoments, len(clusters))
	for i, frags := range clusters {
		cm := NewClusterMoments(factors)
		for j := range frags {
			cm.Add(&frags[j])
		}
		streams[i] = cm
	}
	return streams
}

// TestQuantifyMomentsMatchesBatchFuzz pins the moment-form
// quantification to the design-matrix reference (quantifyDesign):
// identical drop decisions and significance sets, and all reported
// numbers within tolerance.
func TestQuantifyMomentsMatchesBatchFuzz(t *testing.T) {
	schedules := 120
	if testing.Short() {
		schedules = 30
	}
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("sched%03d", sched), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(5200 + sched)))
			clusters := synthClusters(rng)
			factors := fullRankFactors()

			want := quantifyDesign(clusters, factors)
			got := QuantifyMoments(momentStreams(clusters, factors), factors)

			if len(got.Dropped) != len(want.Dropped) {
				t.Fatalf("dropped sets differ: %v vs %v", got.Dropped, want.Dropped)
			}
			for i := range want.Dropped {
				if got.Dropped[i] != want.Dropped[i] {
					t.Fatalf("dropped[%d]: %v vs %v", i, got.Dropped[i], want.Dropped[i])
				}
			}
			if !tolClose(got.FGStat, want.FGStat, 1e-8) || !tolClose(got.FGPValue, want.FGPValue, 1e-8) {
				t.Fatalf("FG differs: (%v,%v) vs (%v,%v)", got.FGStat, got.FGPValue, want.FGStat, want.FGPValue)
			}
			if !tolClose(got.R2, want.R2, 1e-8) {
				t.Fatalf("R2 differs: %v vs %v", got.R2, want.R2)
			}
			if len(got.PValue) != len(want.PValue) {
				t.Fatalf("PValue key sets differ: %d vs %d", len(got.PValue), len(want.PValue))
			}
			for f, wp := range want.PValue {
				gp, ok := got.PValue[f]
				if !ok || !tolClose(gp, wp, 1e-8) {
					t.Fatalf("PValue[%v]: %v (ok=%v) vs %v", f, gp, ok, wp)
				}
			}
			if len(got.TimePerUnit) != len(want.TimePerUnit) {
				t.Fatalf("TimePerUnit key sets differ: %v vs %v", got.TimePerUnit, want.TimePerUnit)
			}
			for f, wv := range want.TimePerUnit {
				gv, ok := got.TimePerUnit[f]
				if !ok || !tolClose(gv, wv, 1e-9) {
					t.Fatalf("TimePerUnit[%v]: %v (ok=%v) vs %v", f, gv, ok, wv)
				}
			}
		})
	}
}

// TestQuantifyMomentsSingularHierarchy checks the moment path on the
// real diagnosis factor set, where PageFault and ContextSwitch are
// exact sums of their children and the design starts rank-deficient.
// Under exact singularity the design-matrix reference leaves the drop
// order to rounding, so this does not compare against it — it pins
// that the drop loop converges to a usable model: enough factors
// dropped to restore full rank, a final fit that succeeds, and finite
// reported times.
func TestQuantifyMomentsSingularHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(990))
	clusters := synthClusters(rng)
	factors := []Factor{Suspension, PageFault, ContextSwitch, Signal,
		SoftPageFault, HardPageFault, VoluntaryCS, InvoluntaryCS}
	q := QuantifyMoments(momentStreams(clusters, factors), factors)
	if len(q.Dropped) < 2 {
		t.Fatalf("rank-deficient design dropped only %v; want >=2 drops", q.Dropped)
	}
	if math.IsNaN(q.R2) || q.R2 < 0 || q.R2 > 1 {
		t.Fatalf("final fit R2 out of range: %v", q.R2)
	}
	for f, v := range q.TimePerUnit {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("TimePerUnit[%v] not finite: %v", f, v)
		}
	}
}

// TestClusterMomentsAddAllocs pins the per-fragment accumulation of a
// warm accumulator as allocation-free, on the sparse (idle counters),
// mixed and dense (every column armed) folds.
func TestClusterMomentsAddAllocs(t *testing.T) {
	for _, c := range []trace.CountersView{
		{},
		{SuspensionNS: 1000, SoftPF: 3, VolCS: 2},
		{SuspensionNS: 1000, SoftPF: 3, HardPF: 1, VolCS: 2, InvolCS: 4, Signals: 1},
	} {
		cm := NewClusterMoments(osFactorsUnderTest())
		warm := trace.Fragment{Kind: trace.Comp, Elapsed: 900_000}
		for i := 0; i < 4; i++ {
			cm.Add(&warm)
		}
		frag := trace.Fragment{Rank: 1, Kind: trace.Comp, Start: 5, Elapsed: 1_000_000, Counters: c}
		avg := testing.AllocsPerRun(100, func() { cm.Add(&frag) })
		if avg != 0 {
			t.Fatalf("counters %+v: ClusterMoments.Add allocated %.1f times per call; want 0", c, avg)
		}
	}
}

func osFactorsUnderTest() []Factor {
	return []Factor{Suspension, PageFault, ContextSwitch, Signal,
		SoftPageFault, HardPageFault, VoluntaryCS, InvoluntaryCS}
}

// hierarchyClusters builds clusters whose parent counters equal one
// child bitwise: HardPF and VolCS are always 0, so page-fault is
// soft-page-fault and context-switch is involuntary-cs. Involuntary
// switches drive both suspension and elapsed; soft faults drive elapsed
// and correlate with no other column.
func hierarchyClusters(rng *rand.Rand) [][]trace.Fragment {
	clusters := make([][]trace.Fragment, 2+rng.Intn(6))
	for c := range clusters {
		base := int64(1_000_000 * (c + 1))
		frags := make([]trace.Fragment, 20+rng.Intn(2000))
		for i := range frags {
			invol := uint64(rng.Intn(4))
			soft := uint64(rng.Intn(3))
			susp := 2_000*int64(invol) + rng.Int63n(500)
			frags[i] = trace.Fragment{
				Rank: i % 4, Kind: trace.Comp, From: 1, State: 2,
				Start:   int64(i) * base,
				Elapsed: base + 40_000*int64(invol) + 10_000*int64(soft) + rng.Int63n(5_000),
				Counters: trace.CountersView{
					TotIns: uint64(base), SuspensionNS: susp, SoftPF: soft, InvolCS: invol,
				},
			}
		}
		clusters[c] = frags
	}
	return clusters
}

// TestQuantifyCollinearHierarchy: on the full OS factor set, a parent
// bitwise equal to its child must not leave the drop order to
// rounding. Page-fault and context-switch go first, in that order;
// soft-page-fault, which drives elapsed, is never dropped; and the
// clusters folded in another row order (as a warm store folds them, in
// arrival order) drop the same factors.
func TestQuantifyCollinearHierarchy(t *testing.T) {
	factors := osFactorsUnderTest()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clusters := hierarchyClusters(rng)
		q := QuantifyMoments(momentStreams(clusters, factors), factors)
		if len(q.Dropped) < 2 || q.Dropped[0] != PageFault || q.Dropped[1] != ContextSwitch {
			t.Fatalf("seed %d: dropped %v, want page-fault then context-switch first", seed, q.Dropped)
		}
		if slices.Contains(q.Dropped, SoftPageFault) {
			t.Fatalf("seed %d: dropped soft-page-fault (%v)", seed, q.Dropped)
		}
		shuffled := make([][]trace.Fragment, len(clusters))
		for c, frags := range clusters {
			shuffled[c] = slices.Clone(frags)
			rng.Shuffle(len(frags), func(i, j int) { shuffled[c][i], shuffled[c][j] = shuffled[c][j], shuffled[c][i] })
		}
		if got := QuantifyMoments(momentStreams(shuffled, factors), factors); !slices.Equal(got.Dropped, q.Dropped) {
			t.Fatalf("seed %d: row order changed the drops: %v vs %v", seed, got.Dropped, q.Dropped)
		}
	}
}
