package collector

import (
	"math/rand"
	"testing"

	"vapro/internal/trace"
)

// flushBatch draws one client flush of an end-to-end benchmark
// population (benchFragment): per start-ordered fragments of one rank.
func flushBatch(commIO bool, per int) []trace.Fragment {
	rng := rand.New(rand.NewSource(3))
	batch := make([]trace.Fragment, per)
	var clock int64
	for i := range batch {
		batch[i] = benchFragment(rng, commIO, 5, clock)
		clock += batch[i].Elapsed
	}
	return batch
}

// BenchmarkEncodeFrame is the client's flush encoding alone: one traced
// frame around a 256-fragment batch of each population, reported per
// fragment (ns/frag, wire B/frag) and per frame (allocs/op).
func BenchmarkEncodeFrame(b *testing.B) {
	for _, pop := range []struct {
		name   string
		commIO bool
	}{{"comp", false}, {"commio", true}} {
		b.Run("pop="+pop.name, func(b *testing.B) {
			batch := flushBatch(pop.commIO, 256)
			n := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n = len(encodeFrameTraced(5, uint64(i), 7, int64(i), batch))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(batch)), "ns/frag")
			b.ReportMetric(float64(n)/float64(len(batch)), "B/frag")
		})
	}
}

// TestEncodeFrameAllocs pins a flush's encoding at three allocations per
// frame whatever the population: the frame buffer and the state-key
// dictionary's two arrays.
func TestEncodeFrameAllocs(t *testing.T) {
	for _, commIO := range []bool{false, true} {
		batch := flushBatch(commIO, 256)
		if a := testing.AllocsPerRun(50, func() { encodeFrameTraced(5, 1, 7, 99, batch) }); a > 3 {
			t.Fatalf("commIO=%v: encodeFrameTraced allocates %.0f times per frame; want <= 3", commIO, a)
		}
	}
}
