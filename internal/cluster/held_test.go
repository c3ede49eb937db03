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
	return cluster.Result{Clusters: slices.Clone(r.Clusters), Assign: slices.Clone(r.Assign), Small: r.Small}
}

// cloneDelta deep-copies d's Added lists.
func cloneDelta(d cluster.Delta) cluster.Delta {
	d.Dirty = slices.Clone(d.Dirty)
	for i := range d.Dirty {
		d.Dirty[i].Added = slices.Clone(d.Dirty[i].Added)
	}
	return d
}

// remaps reports whether an advance moved a surviving old cluster to a
// new index: a shifted tail, or a dirty run that carries an old cluster
// over under another index. Only the cloning path of commitAssign can
// take such an advance, and it must rewrite those members' Assign.
func remaps(d cluster.Delta) bool {
	if d.TailNew != d.TailOld {
		return true
	}
	for i, dr := range d.Dirty {
		if dr.OldIndex >= 0 && dr.OldIndex != d.Prefix+i {
			return true
		}
	}
	return false
}

// TestHeldResultsStayUnchanged: a Result the cache hands out is never
// written again, whatever later advances do to the grow-only backings
// it shares — the sample store reads Result.Assign in place — and a
// Delta's Added lists are its own. Every Result and Delta of 240
// advances over 1-D and multi-D elements is held beside a deep clone,
// and after each advance every held one must still equal its clone. The
// advances take both ways commitAssign builds an Assign: extending the
// previous Result's backing in place, and cloning it; and among the
// clones, advances that move surviving clusters to new indexes, whose
// members the clone path must remap.
func TestHeldResultsStayUnchanged(t *testing.T) {
	const elems, steps = 8, 30
	rng := rand.New(rand.NewSource(31))
	var shared, cloned, remapped [2]int // by multiD
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
		var held, clones []cluster.Result
		var heldD, cloneDs []cluster.Delta
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
			if !reflect.DeepEqual(got, cluster.Run(v, opt)) {
				t.Fatalf("element %d step %d: incremental clustering diverges from Run", e, step)
			}
			if !d.Full && len(held) > 0 && len(held[len(held)-1].Assign) > 0 {
				switch {
				case &got.Assign[0] == &held[len(held)-1].Assign[0]:
					shared[md]++
				case remaps(d):
					remapped[md]++
				default:
					cloned[md]++
				}
			}
			held, clones = append(held, got), append(clones, cloneResult(got))
			heldD, cloneDs = append(heldD, d), append(cloneDs, cloneDelta(d))
			for i := range held {
				if !reflect.DeepEqual(held[i], clones[i]) {
					t.Fatalf("element %d step %d: the Result of step %d was written after it was returned", e, step, i)
				}
				if !reflect.DeepEqual(heldD[i], cloneDs[i]) {
					t.Fatalf("element %d step %d: the Delta of step %d was written after it was returned", e, step, i)
				}
			}
		}
	}
	t.Logf("shared-backing advances %v, cloned %v, cloned with a remap %v (1-D, multi-D)", shared, cloned, remapped)
	for md := range shared {
		if shared[md] == 0 || remapped[md] == 0 {
			t.Fatalf("multiD=%v: %d shared-backing and %d remapping advances; the test needs both",
				md == 1, shared[md], remapped[md])
		}
	}
}
