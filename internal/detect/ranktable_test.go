package detect

import (
	"math"
	"math/rand"
	"testing"
)

// TestRankTableCounts: a cluster's per-rank counts equal a map's,
// whatever order ranks arrive in — the array growing, stray ids
// (negative, past the array's bound, the ends of the int range) counted
// in the map — and a shard's ranks, in any order, never reach the map.
func TestRankTableCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	extremes := []int{-1, math.MinInt32, math.MaxInt32, math.MaxInt32 + 1, math.MaxInt64, math.MinInt64}
	for trial := 0; trial < 200; trial++ {
		var tab rankTable
		want := make(map[int]int32)
		base := rng.Intn(2 * denseRanks)
		draw := func() int {
			switch rng.Intn(8) {
			case 0:
				return base - rng.Intn(denseRanks)
			case 1:
				return base + rng.Intn(denseRanks)
			case 2:
				return extremes[rng.Intn(len(extremes))]
			default:
				return base + rng.Intn(64)
			}
		}
		for i := 0; i < 300; i++ {
			r := draw()
			tab.add(r)
			want[r]++
		}
		for i := 0; i < 600; i++ {
			if r := draw(); tab.count(r) != want[r] {
				t.Fatalf("trial %d: rank %d counted %d times, want %d", trial, r, tab.count(r), want[r])
			}
		}
	}
	var shard rankTable
	for _, r := range rng.Perm(256) {
		shard.add(256 + r)
	}
	if shard.stray != nil || len(shard.dense) != 512 {
		t.Fatalf("a shard's 256 ranks took %d array slots and %d map entries", len(shard.dense), len(shard.stray))
	}
}
