package cluster_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// cloneResult deep-copies r: nothing in the copy shares memory with it.
func cloneResult(r cluster.Result) cluster.Result {
	c := cluster.Result{Clusters: slices.Clone(r.Clusters), Assign: slices.Clone(r.Assign), Small: r.Small}
	for i := range c.Clusters {
		c.Clusters[i].Members = slices.Clone(c.Clusters[i].Members)
	}
	return c
}

// TestHeldResultsStayUnchanged: a Result the cache hands out is never
// written again, whatever later advances do to the grow-only backings
// it shares — the sample store reads Result.Assign in place. Every
// Result of 240 advances over 1-D and multi-D elements is held beside a
// deep clone, and after each advance every held Result must still equal
// its clone. The advances take both ways commitAssign builds an Assign:
// extending the previous Result's backing in place, and cloning it when
// the cluster tail shifts.
func TestHeldResultsStayUnchanged(t *testing.T) {
	const elems, steps = 8, 30
	rng := rand.New(rand.NewSource(31))
	var shared, cloned [2]int // by multiD
	for e := 0; e < elems; e++ {
		multiD := e%2 == 1
		opt := cluster.DefaultOptions()
		opt.MinFragments = 2
		c := cluster.NewCache()
		key := cluster.VertexKey(uint64(e))
		log := trace.NewLog(nil)
		var held, clones []cluster.Result
		for step := 0; step < steps; step++ {
			for i, n := 0, 1+rng.Intn(60); i < n; i++ {
				f := trace.Fragment{Kind: trace.Comp, Rank: rng.Intn(8), Elapsed: int64(1 + rng.Intn(200))}
				// Mostly a fixed class (the grown runs keep their index);
				// sometimes a novel value, which seeds a cluster mid-order
				// and shifts the tail.
				class := 1 + rng.Intn(5)
				if rng.Intn(8) == 0 {
					class = 1 + rng.Intn(4000)
				}
				if multiD {
					f.Kind = trace.Comm
					f.Args = trace.Args{Op: trace.Op("Send"), Bytes: class * 1024, Tag: rng.Intn(2)}
				} else {
					f.Counters.TotIns = uint64(class) * 100_000
				}
				log.Append(&f)
			}
			v := log.View()
			got, d := c.RunInc(key, stg.Gen{Count: uint64(v.Len())}, v, opt)
			if !sameClustering(got, cluster.Run(v, opt)) {
				t.Fatalf("element %d step %d: incremental clustering diverges from Run", e, step)
			}
			if !d.Full && len(held) > 0 && len(held[len(held)-1].Assign) > 0 {
				md := 0
				if multiD {
					md = 1
				}
				if &got.Assign[0] == &held[len(held)-1].Assign[0] {
					shared[md]++
				} else {
					cloned[md]++
				}
			}
			held, clones = append(held, got), append(clones, cloneResult(got))
			for i := range held {
				if !reflect.DeepEqual(held[i], clones[i]) {
					t.Fatalf("element %d step %d: the Result of step %d was written after it was returned", e, step, i)
				}
			}
		}
	}
	t.Logf("shared-backing advances %v, cloned %v (1-D, multi-D)", shared, cloned)
	for md := range shared {
		if shared[md] == 0 || cloned[md] == 0 {
			t.Fatalf("multiD=%v: %d shared-backing and %d cloned advances; the test needs both", md == 1, shared[md], cloned[md])
		}
	}
}
