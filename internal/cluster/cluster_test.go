package cluster

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"vapro/internal/sim"
	"vapro/internal/trace"
)

func compFrag(ins uint64, elapsed int64) trace.Fragment {
	return trace.Fragment{
		Kind:     trace.Comp,
		Elapsed:  elapsed,
		Counters: trace.CountersView{TotIns: ins},
	}
}

func commFrag(bytes, peer, tag int) trace.Fragment {
	return trace.Fragment{
		Kind: trace.Comm,
		Args: trace.Args{Op: trace.Op("Send"), Bytes: bytes, Peer: peer, Tag: tag},
	}
}

func TestEmptyInput(t *testing.T) {
	res := Run(trace.LogOf(nil), DefaultOptions())
	if len(res.Clusters) != 0 || len(res.Assign) != 0 {
		t.Fatal("empty input must give empty result")
	}
}

func TestSeparatesWorkloadClasses(t *testing.T) {
	var frags []trace.Fragment
	// Three well-separated classes, ten members each with ~0.3% jitter.
	rng := sim.NewRNG(1)
	for _, base := range []uint64{1000000, 2000000, 4000000} {
		for i := 0; i < 10; i++ {
			jitter := 1 + 0.003*(rng.Float64()*2-1)
			frags = append(frags, compFrag(uint64(float64(base)*jitter), 100))
		}
	}
	res := Run(trace.LogOf(frags), DefaultOptions())
	fixed := 0
	for _, c := range res.Clusters {
		if c.Fixed {
			fixed++
			if c.Size != 10 {
				t.Fatalf("cluster size %d, want 10", c.Size)
			}
		}
	}
	if fixed != 3 {
		t.Fatalf("found %d fixed clusters, want 3", fixed)
	}
}

func TestMergesWithinThreshold(t *testing.T) {
	var frags []trace.Fragment
	// Two classes only 2% apart: inside the 5% tolerance, must merge
	// (this is the PageRank homogeneity story).
	for i := 0; i < 10; i++ {
		frags = append(frags, compFrag(1000000, 100))
		frags = append(frags, compFrag(1020000, 100))
	}
	res := Run(trace.LogOf(frags), DefaultOptions())
	if len(res.Clusters) != 1 {
		t.Fatalf("2%%-apart classes split into %d clusters", len(res.Clusters))
	}
}

func TestSmallClusterReported(t *testing.T) {
	frags := []trace.Fragment{
		compFrag(1000, 1), compFrag(1001, 1), // pair, below MinFragments
	}
	res := Run(trace.LogOf(frags), DefaultOptions())
	if res.Small != 1 {
		t.Fatalf("small clusters: %d", res.Small)
	}
	if res.Clusters[0].Fixed {
		t.Fatal("2-member cluster must not count as fixed")
	}
}

func TestEveryFragmentAssigned(t *testing.T) {
	rng := sim.NewRNG(2)
	var frags []trace.Fragment
	for i := 0; i < 200; i++ {
		frags = append(frags, compFrag(uint64(1000+rng.Intn(1000000)), 1))
	}
	res := Run(trace.LogOf(frags), DefaultOptions())
	for i, a := range res.Assign {
		if a < 0 || int(a) >= len(res.Clusters) {
			t.Fatalf("fragment %d unassigned (%d)", i, a)
		}
	}
}

// Property: input order never changes cluster contents.
func TestOrderIndependence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 50 + rng.Intn(50)
		frags := make([]trace.Fragment, n)
		for i := range frags {
			frags[i] = compFrag(uint64(1000+rng.Intn(100000)), 1)
		}
		a := Run(trace.LogOf(frags), DefaultOptions())
		// Reverse order.
		rev := make([]trace.Fragment, n)
		for i := range frags {
			rev[n-1-i] = frags[i]
		}
		b := Run(trace.LogOf(rev), DefaultOptions())
		// Compare by canonical signature: multiset of sorted member
		// norms per cluster count.
		return len(a.Clusters) == len(b.Clusters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: intra-cluster spread never exceeds the threshold relative
// to the seed norm (Algorithm 1's invariant).
func TestIntraClusterDiameter(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		opt := DefaultOptions()
		n := 100
		frags := make([]trace.Fragment, n)
		for i := range frags {
			frags[i] = compFrag(uint64(1000+rng.Intn(1000000)), 1)
		}
		res := Run(trace.LogOf(frags), opt)
		groups := res.Groups()
		for ci, c := range res.Clusters {
			seedVec := VectorOf(&frags[c.Seed], opt)
			for _, m := range groups[ci] {
				v := VectorOf(&frags[m], opt)
				if c.SeedNorm > 0 && v.Dist(seedVec) > opt.Threshold*c.SeedNorm*(1+1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCommClusteringByArgs(t *testing.T) {
	var frags []trace.Fragment
	for i := 0; i < 10; i++ {
		frags = append(frags, commFrag(65536, 1, 10))
		frags = append(frags, commFrag(32768, 1, 10))
	}
	res := Run(trace.LogOf(frags), DefaultOptions())
	if len(res.Clusters) != 2 {
		t.Fatalf("message sizes 64K/32K must split: %d clusters", len(res.Clusters))
	}
}

func TestZeroNormCluster(t *testing.T) {
	var frags []trace.Fragment
	for i := 0; i < 6; i++ {
		frags = append(frags, compFrag(0, 1)) // glue fragments
	}
	frags = append(frags, compFrag(500000, 1))
	res := Run(trace.LogOf(frags), DefaultOptions())
	// Zero-norm fragments must not swallow the real workload.
	if res.Assign[6] == res.Assign[0] {
		t.Fatal("zero-norm seed absorbed a real workload")
	}
}

func TestFixedFraction(t *testing.T) {
	var frags []trace.Fragment
	for i := 0; i < 10; i++ {
		frags = append(frags, compFrag(1000000, 100))
	}
	frags = append(frags, compFrag(77000000, 900)) // lone slow one-off
	res := Run(trace.LogOf(frags), DefaultOptions())
	got := res.FixedFraction(trace.LogOf(frags))
	want := 1000.0 / 1900.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("fixed fraction %v, want %v", got, want)
	}
}

func TestUseExtraMetrics(t *testing.T) {
	f := trace.Fragment{Kind: trace.Comp, Counters: trace.CountersView{TotIns: 100, LoadStores: 40}}
	opt := DefaultOptions()
	if got := VectorOf(&f, opt); len(got) != 1 {
		t.Fatalf("a computation vector has %d dimensions, want 1", len(got))
	}
	opt.UseExtraMetrics = true
	if got := VectorOf(&f, opt); len(got) != 2 {
		t.Fatal("VectorOf ignored UseExtraMetrics")
	}
}

func TestDefaultsApplied(t *testing.T) {
	frags := []trace.Fragment{compFrag(100, 1), compFrag(100, 1)}
	res := Run(trace.LogOf(frags), Options{}) // zero options → defaults
	if len(res.Clusters) != 1 {
		t.Fatalf("zero options broke clustering: %d clusters", len(res.Clusters))
	}
}

// TestSortNormKeysMatchesStableSort: the append merge's radix order is
// exactly Run's — slices.SortStableFunc with cmp.Compare over the norms
// in index order — on adversarial norms: NaN, ±0, ±Inf, negatives,
// subnormals, long runs of equal values, and batch sizes from 1 to 4 096.
func TestSortNormKeysMatchesStableSort(t *testing.T) {
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		-1, -2.5, 1, 2.5, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1e6, 1e6 + 1, math.Float64frombits(0x7ff8000000000001)}
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 17, 256, 1000, 4096} {
		for trial := 0; trial < 20; trial++ {
			norms := make([]float64, k)
			for i := range norms {
				switch r := rng.Intn(4); {
				case r == 0:
					norms[i] = special[rng.Intn(len(special))]
				case r == 1 && i > 0:
					norms[i] = norms[i-1] // equal runs
				case r == 2:
					norms[i] = float64(rng.Intn(5)) * 1_000_000
				default:
					norms[i] = rng.NormFloat64() * 1e6
				}
			}
			const base = 1000
			want := make([]int32, k)
			for i := range want {
				want[i] = base + int32(i)
			}
			slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(norms[a-base], norms[b-base]) })
			got := sortNormKeys(new([]normKey), norms, base)
			for i, key := range got {
				if key.idx != want[i] {
					t.Fatalf("k=%d trial %d: position %d holds fragment %d (norm %v), stable sort has %d (norm %v)",
						k, trial, i, key.idx, norms[key.idx-base], want[i], norms[want[i]-base])
				}
			}
		}
	}
}
