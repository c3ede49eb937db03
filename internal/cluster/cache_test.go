package cluster_test

import (
	"reflect"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

func cacheFrag(ins uint64) trace.Fragment {
	return trace.Fragment{
		Kind:     trace.Comp,
		Elapsed:  100,
		Counters: trace.CountersView{TotIns: ins},
	}
}

// gen shortens watermark literals in tests: epoch 0, the given count.
func gen(count int) stg.Gen { return stg.Gen{Count: uint64(count)} }

func TestCacheHitOnUnchangedGeneration(t *testing.T) {
	c := cluster.NewCache()
	frags := make([]trace.Fragment, 0, 10)
	for i := 0; i < 10; i++ {
		frags = append(frags, cacheFrag(1_000_000))
	}
	key := cluster.EdgeKey(trace.EdgeKey{From: 1, To: 2})
	opt := cluster.DefaultOptions()

	first := c.Run(key, gen(10), trace.LogOf(frags), opt)
	second := c.Run(key, gen(10), trace.LogOf(frags), opt)
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats after warm lookup: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached result differs from computed result")
	}
}

func TestCacheNormalizesOptions(t *testing.T) {
	c := cluster.NewCache()
	frags := []trace.Fragment{cacheFrag(100), cacheFrag(100)}
	key := cluster.VertexKey(7)
	// Zero options and the explicit defaults are the same clustering;
	// they must share one cache entry.
	c.Run(key, gen(2), trace.LogOf(frags), cluster.Options{})
	c.Run(key, gen(2), trace.LogOf(frags), cluster.DefaultOptions())
	if hits, _ := c.Stats(); hits != 1 {
		t.Fatalf("zero options missed the default-options entry: hits=%d", hits)
	}
}

func TestCacheDistinctOptionsRecompute(t *testing.T) {
	c := cluster.NewCache()
	frags := []trace.Fragment{cacheFrag(100), cacheFrag(104)}
	key := cluster.VertexKey(1)
	a := cluster.DefaultOptions()
	b := cluster.DefaultOptions()
	b.Threshold = 0.01
	c.Run(key, gen(2), trace.LogOf(frags), a)
	res := c.Run(key, gen(2), trace.LogOf(frags), b)
	if _, misses := c.Stats(); misses != 2 {
		t.Fatalf("different options must not hit: misses=%d", misses)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("1%% threshold should split 4%%-apart fragments: %d clusters", len(res.Clusters))
	}
}

// Evictions count discarded clusterings: entries overwritten by a full
// recompute — never cold misses or incremental advances (which evolve
// the entry rather than discard it).
func TestCacheEvictions(t *testing.T) {
	c := cluster.NewCache()
	frags := []trace.Fragment{cacheFrag(100)}
	key := cluster.VertexKey(1)
	opt := cluster.DefaultOptions()

	c.Run(key, gen(1), trace.LogOf(frags), opt) // cold miss: nothing evicted
	if got := c.Evictions(); got != 0 {
		t.Fatalf("evictions after cold miss: %d", got)
	}
	grown := append(append(make([]trace.Fragment, 0, 2), frags...), cacheFrag(101))
	c.Run(key, gen(2), trace.LogOf(grown), opt) // append-only: incremental advance, no discard
	if got := c.Evictions(); got != 0 {
		t.Fatalf("evictions after incremental advance: %d, want 0", got)
	}
	if incHits, _, _ := c.IncStats(); incHits != 1 {
		t.Fatalf("incremental hits: %d, want 1", incHits)
	}
	// An epoch bump is a wholesale replacement: the entry is rebuilt.
	c.Run(key, stg.Gen{Epoch: 1, Count: 2}, trace.LogOf(grown), opt)
	if got := c.Evictions(); got != 1 {
		t.Fatalf("evictions after epoch bump: %d, want 1", got)
	}
}

// Appending fragments to one STG edge advances its generation and
// re-clusters only that element (incrementally): the untouched vertex
// keeps hitting.
func TestCacheGenerationBumpTouchesOnlyGrownElement(t *testing.T) {
	g := stg.New()
	for i := 0; i < 6; i++ {
		g.AddBatch([]trace.Fragment{{Rank: 0, Kind: trace.Comp, From: 1, State: 2,
			Counters: trace.CountersView{TotIns: 1_000_000}, Elapsed: 100}})
		g.AddBatch([]trace.Fragment{{Rank: 0, Kind: trace.Comm, State: 2,
			Args: trace.Args{Op: trace.Op("Send"), Bytes: 1024}, Elapsed: 10}})
	}
	e := g.Edge(trace.EdgeKey{From: 1, To: 2})
	v := g.Vertex(2)
	if e.Gen.Count != 6 || v.Gen.Count != 6 {
		t.Fatalf("gens after 6 appends: edge=%d vertex=%d, want 6/6", e.Gen.Count, v.Gen.Count)
	}

	c := cluster.NewCache()
	opt := cluster.DefaultOptions()
	runBoth := func() {
		c.Run(cluster.EdgeKey(e.Key), e.Gen, e.Log(), opt)
		c.Run(cluster.VertexKey(v.Key), v.Gen, v.Log(), opt)
	}
	runBoth() // cold: 2 misses
	runBoth() // warm: 2 hits

	// Grow only the edge.
	g.AddBatch([]trace.Fragment{{Rank: 0, Kind: trace.Comp, From: 1, State: 2,
		Counters: trace.CountersView{TotIns: 1_000_000}, Elapsed: 100}})
	if e.Gen.Count != 7 {
		t.Fatalf("edge gen %d after append, want 7", e.Gen.Count)
	}
	if v.Gen.Count != 6 {
		t.Fatalf("vertex gen %d must be untouched", v.Gen.Count)
	}
	runBoth() // edge advances incrementally, vertex hits
	hits, misses := c.Stats()
	incHits, incFallbacks, _ := c.IncStats()
	if hits != 3 || misses != 2 || incHits != 1 || incFallbacks != 0 {
		t.Fatalf("hits=%d misses=%d inc=%d/%d, want 3/2/1/0 (only the grown edge re-clustered, incrementally)",
			hits, misses, incHits, incFallbacks)
	}

	// The advanced edge clustering must see the appended fragment.
	res := c.Run(cluster.EdgeKey(e.Key), e.Gen, e.Log(), opt)
	if got := res.Len(); got != 7 {
		t.Fatalf("cached edge clustering covers %d fragments, want 7", got)
	}
}
