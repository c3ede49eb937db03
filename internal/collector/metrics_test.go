package collector

import (
	"fmt"
	"sync"
	"testing"

	"vapro/internal/sim"
	"vapro/internal/trace"
)

// A backlog bound of 1 forces every consume onto the backpressure path;
// the stall counter and the staged high-water mark must show it.
func TestIntakeBackpressureStall(t *testing.T) {
	p := NewPool(1, DefaultOptions())
	setIntake(p, intakeMode{maxStage: 1})
	const n = 8
	for i := 0; i < n; i++ {
		p.Consume(0, []trace.Fragment{frag(0, int64(i)*1000, 500)})
	}
	met := p.Metrics()
	if got := met.IntakeStalls.Load(); got != n {
		t.Fatalf("stalls: %d, want %d (a bound of 1 stalls every consume)", got, n)
	}
	if got := met.IntakeStagedPeak.Load(); got != 1 {
		t.Fatalf("max staged depth: %d, want 1", got)
	}
	if p.FragmentCount() != n {
		t.Fatalf("fragments: %d", p.FragmentCount())
	}
}

// The pool's registry must expose the full cross-layer surface with
// live values after an ingest + analysis round trip.
func TestPoolMetricsEndToEnd(t *testing.T) {
	opt := DefaultOptions()
	opt.Period = 10 * sim.Millisecond
	opt.Overlap = 5 * sim.Millisecond
	opt.Detect.Window = sim.Millisecond
	p := NewPool(2, opt)
	for rank := 0; rank < 2; rank++ {
		for i := 0; i < 30; i++ {
			p.Consume(rank, []trace.Fragment{frag(rank, int64(i)*1_000_000, 900_000)})
		}
	}
	if len(p.WindowResults()) == 0 {
		t.Fatal("no windows analyzed")
	}
	snap := p.Metrics().Registry.Snapshot()
	if m := snap.Get("vapro_intake_batches_total"); m == nil || m.Value != 60 {
		t.Fatalf("intake batches: %+v", m)
	}
	if m := snap.Get("vapro_intake_fragments_total"); m == nil || m.Value != 60 {
		t.Fatalf("intake fragments: %+v", m)
	}
	if m := snap.Get("vapro_intake_bytes_total"); m == nil || m.Value <= 0 {
		t.Fatalf("intake bytes: %+v", m)
	}
	if m := snap.Get("vapro_detect_windows_total"); m == nil || m.Value <= 0 {
		t.Fatalf("detect windows: %+v", m)
	}
	if m := snap.Get("vapro_detect_window_ns"); m == nil || m.Hist == nil || m.Hist.Total == 0 {
		t.Fatalf("window latency histogram: %+v", m)
	}
	for _, st := range []string{"prep", "cluster", "normalize", "merge", "map"} {
		if m := snap.Get("vapro_detect_stage_" + st + "_ns"); m == nil || m.Hist == nil || m.Hist.Total == 0 {
			t.Fatalf("stage %s span histogram: %+v", st, m)
		}
	}
	// The analysis reclustered elements, so the cache Func metrics are
	// live numbers, and the staged backlog drained back to zero.
	hits := snap.Get("vapro_cluster_cache_hits")
	misses := snap.Get("vapro_cluster_cache_misses")
	if hits == nil || misses == nil || misses.Value == 0 {
		t.Fatalf("cache metrics: hits=%+v misses=%+v", hits, misses)
	}
	// The fallback total and the stale-read count are published once
	// each; the retired dirty-span valve, the store compaction counter
	// and the two series that duplicated those (every fallback was
	// multi-D, every stale fallback a stale reject) publish nothing.
	for _, name := range []string{"vapro_cluster_cache_inc_fallbacks", "vapro_cluster_cache_stale_rejects"} {
		if snap.Get(name) == nil {
			t.Fatalf("series %s missing", name)
		}
	}
	for _, name := range []string{"vapro_cluster_cache_inc_fallback_dirty", "vapro_detect_store_compactions_total",
		"vapro_cluster_cache_inc_fallback_multid", "vapro_cluster_cache_inc_fallback_stale"} {
		if snap.Get(name) != nil {
			t.Fatalf("retired series %s still published", name)
		}
	}
	if m := snap.Get("vapro_intake_staged"); m == nil || m.Value != 0 {
		t.Fatalf("staged after drain: %+v", m)
	}
	if m := snap.Get("vapro_storage_bytes_per_rank_second"); m == nil || m.Value <= 0 {
		t.Fatalf("storage rate: %+v", m)
	}
}

// The registry snapshot, whose cache Func metrics read every plane's
// clustering cache, must be safe while windows are being analyzed
// concurrently, over one plane and over a tier — run under -race in CI.
func TestMonitorCacheStatsConcurrent(t *testing.T) {
	for _, shards := range testShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testCacheStatsConcurrent(t, shards) })
	}
}

func testCacheStatsConcurrent(t *testing.T, shards int) {
	opt := DefaultOptions()
	opt.Period = 5 * sim.Millisecond
	opt.Overlap = 2 * sim.Millisecond
	opt.Detect.Window = sim.Millisecond
	mon := newTestMonitor(shards, opt, DefaultMonitorOptions(4))
	// The scrape surface is the merge of the pool's registries.
	snapshot := mon.Pool.MergedSnapshot

	done := make(chan struct{})
	var probes sync.WaitGroup
	probes.Add(2)
	for range 2 {
		go func() {
			defer probes.Done()
			for {
				select {
				case <-done:
					return
				default:
					snapshot()
				}
			}
		}()
	}

	var feeders sync.WaitGroup
	for rank := 0; rank < 4; rank++ {
		feeders.Add(1)
		go func(rank int) {
			defer feeders.Done()
			for i := 0; i < 40; i++ {
				mon.Consume(rank, []trace.Fragment{frag(rank, int64(i)*1_000_000, 900_000)})
			}
		}(rank)
	}
	feeders.Wait()
	mon.Flush()
	close(done)
	probes.Wait()

	// The monitor ticks on the planes' analyzers, so the cache Func
	// metrics the planes registered describe the monitor's windows.
	snap := snapshot()
	if snap.Get("vapro_cluster_cache_hits").Value+snap.Get("vapro_cluster_cache_misses").Value == 0 {
		t.Fatal("windows ran but the cache counters are zero")
	}
}
