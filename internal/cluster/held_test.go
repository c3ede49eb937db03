package cluster_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// heldResult is a Result as it read when it was returned: its clusters,
// and every fragment's cluster index and label.
type heldResult struct {
	clusters []cluster.Cluster
	small    int
	of, lab  []int
}

func snapshot(r cluster.Result) heldResult {
	h := heldResult{clusters: slices.Clone(r.Clusters), small: r.Small, of: clusterOfAll(r), lab: make([]int, r.Len())}
	for i := range h.lab {
		h.lab[i] = r.LabelOf(i)
	}
	return h
}

// cloneDelta deep-copies d's lists.
func cloneDelta(d cluster.Delta) cluster.Delta {
	d.Retired = slices.Clone(d.Retired)
	d.Born, d.Grown = slices.Clone(d.Born), slices.Clone(d.Grown)
	for _, runs := range [][]cluster.LabelRun{d.Born, d.Grown} {
		for i := range runs {
			runs[i].Added = slices.Clone(runs[i].Added)
		}
	}
	return d
}

// rewritesResidents reports whether an advance from prev wrote a label
// over a resident's: a re-cut that moved a resident to a born cluster
// under another label. The lane must copy that resident's chunk first.
func rewritesResidents(prev cluster.Result, d cluster.Delta) bool {
	for _, r := range d.Born {
		for _, m := range r.Added {
			if int(m) < prev.Len() && prev.LabelOf(int(m)) != r.Label {
				return true
			}
		}
	}
	return false
}

// TestHeldResultsStayUnchanged: a Result the cache hands out is never
// written again, whatever later advances do to the label chunks it
// shares — the sample store reads a Result's labels in place — and a
// Delta's lists are its own. Every Result and Delta of 240 advances
// over 1-D and multi-D elements is held beside a snapshot, and after
// each advance every held one must still read as its snapshot. The
// advances take every way a lane is written: appending past the held
// Results into the chunks they share, copying a chunk before a re-cut
// rewrites a resident's label, and widening the whole lane into new
// chunks when a 257th label is born (a burst of 300 fragments 6 %
// apart, each a cluster of its own, halfway through).
func TestHeldResultsStayUnchanged(t *testing.T) {
	const elems, steps = 8, 30
	rng := rand.New(rand.NewSource(31))
	var shared, copied, widened [2]int // by multiD
	for e := 0; e < elems; e++ {
		multiD := e%2 == 1
		md := 0
		if multiD {
			md = 1
		}
		opt := cluster.DefaultOptions()
		opt.MinFragments = 2
		c := cluster.NewCache()
		key := cluster.VertexKey(uint64(e))
		log := trace.NewLog(nil)
		var held []cluster.Result
		var snaps []heldResult
		var heldD, cloneDs []cluster.Delta
		for step := 0; step < steps; step++ {
			add := func(class float64) {
				f := trace.Fragment{Kind: trace.Comp, Rank: rng.Intn(8), Elapsed: int64(1 + rng.Intn(200))}
				if multiD {
					f.Kind = trace.Comm
					f.Args = trace.Args{Op: trace.Op("Send"), Bytes: int(class * 1024), Tag: rng.Intn(2)}
				} else {
					f.Counters.TotIns = uint64(class * 100_000)
				}
				log.Append(&f)
			}
			for i, n := 0, 1+rng.Intn(60); i < n; i++ {
				// Mostly a fixed class (the grown clusters keep their
				// label); sometimes a novel value, which seeds a cluster
				// mid-order or re-cuts the clusters its band reaches.
				class := 1 + rng.Intn(5)
				if rng.Intn(8) == 0 {
					class = 1 + rng.Intn(4000)
				}
				add(float64(class))
			}
			if step == steps/2 {
				for i, x := 0, 5000.0; i < 300; i, x = i+1, x*1.06 {
					add(x)
				}
			}
			v := log.View()
			got, d := c.RunInc(key, stg.Gen{Count: uint64(v.Len())}, v, opt)
			if !sameClustering(got, cluster.Run(v, opt)) {
				t.Fatalf("element %d step %d: incremental clustering diverges from Run", e, step)
			}
			if !d.Full && len(held) > 0 {
				prev := held[len(held)-1]
				switch {
				case got.Labels() > 256 && prev.Labels() <= 256:
					widened[md]++
				case rewritesResidents(prev, d):
					copied[md]++
				default:
					shared[md]++
				}
			}
			held, snaps = append(held, got), append(snaps, snapshot(got))
			heldD, cloneDs = append(heldD, d), append(cloneDs, cloneDelta(d))
			for i := range held {
				if !reflect.DeepEqual(snapshot(held[i]), snaps[i]) {
					t.Fatalf("element %d step %d: the Result of step %d was written after it was returned", e, step, i)
				}
				if !reflect.DeepEqual(heldD[i], cloneDs[i]) {
					t.Fatalf("element %d step %d: the Delta of step %d was written after it was returned", e, step, i)
				}
			}
		}
	}
	t.Logf("advances into shared chunks %v, copying a rewritten chunk %v, widening %v (1-D, multi-D)", shared, copied, widened)
	for md := range shared {
		if shared[md] == 0 || copied[md] == 0 || widened[md] != elems/2 {
			t.Fatalf("multiD=%v: %d shared-chunk, %d copying and %d widening advances; the test needs all three, one widening per element",
				md == 1, shared[md], copied[md], widened[md])
		}
	}
}

// TestInsertBelowAllocatesChunksWritten: a cluster born below cluster 0
// of a 1 M-fragment element shifts every cluster's index but keeps
// every label, so the advance writes only its own appended entries. It
// allocates for what it writes and hands out — the appended entries'
// chunk, the cluster list, the label table and the Delta — not for the
// resident population: an Assign of indexes had to be cloned and
// remapped, 4 MB here.
func TestInsertBelowAllocatesChunksWritten(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("clusters 1 M resident fragments; the byte count needs no race instrumentation")
	}
	const resident, appended = 1 << 20, 64
	log := trace.NewLog(nil)
	for i := 0; i < resident; i++ {
		f := cacheFrag(uint64(1+i%4) * 1_000_000)
		log.Append(&f)
	}
	opt := cluster.DefaultOptions()
	c := cluster.NewCache()
	key := cluster.VertexKey(1)
	prev, _ := c.RunInc(key, gen(resident), log.View(), opt)
	for i := 0; i < appended; i++ {
		f := cacheFrag(1000) // a band far below cluster 0's
		log.Append(&f)
	}
	v := log.View()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, d := c.RunInc(key, gen(v.Len()), v, opt)
	runtime.ReadMemStats(&after)
	if d.Full || len(d.Born) != 1 || len(d.Retired) != 0 || len(d.Grown) != 0 || got.Index(d.Born[0].Label) != 0 {
		t.Fatalf("the advance is not one cluster born below cluster 0: %+v", d)
	}
	for _, i := range []int{0, 1, resident - 1} {
		if got.ClusterOf(i) != prev.ClusterOf(i)+1 || got.LabelOf(i) != prev.LabelOf(i) {
			t.Fatalf("resident %d: cluster %d label %d, was %d and %d", i, got.ClusterOf(i), got.LabelOf(i), prev.ClusterOf(i), prev.LabelOf(i))
		}
	}
	if !sameClustering(got, cluster.Run(v, opt)) {
		t.Fatal("the advance diverges from Run")
	}
	const budget = 64 << 10
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("inserting below cluster 0 of %d fragments allocated %d B", resident, alloc)
	if alloc > budget {
		t.Fatalf("inserting below cluster 0 of %d fragments allocated %d B, budget %d", resident, alloc, budget)
	}
}
