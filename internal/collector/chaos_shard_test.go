package collector

import (
	"net"
	"sync"
	"testing"
	"time"

	"vapro/internal/trace"
)

// TestChaosShardServerKillRestart is the sharded tier's fault soak:
// 16 ranks stream through shard-aware resilient clients into 8 shard
// servers while one shard's wire server is killed and restarted (on a
// NEW port) twice under load. It asserts the scale-out plane's
// guarantees:
//
//   - surviving shards keep ticking: tier merges complete during the
//     outage and the survivors' planes keep growing,
//   - the restarted shard's ranks re-attach through the rebalanced
//     ShardMap (hello redirect), with no misrouted deliveries,
//   - exact loss accounting holds PER SHARD: every batch a shard's
//     clients consumed is either in that shard's plane or in that
//     shard's sequence-gap count.
func TestChaosShardServerKillRestart(t *testing.T) {
	const ranks, shards = 16, 8
	const maxSpill = 4
	tier := NewShardedPool(ranks, shards, shardTestOptions())
	defer tier.Close()
	met := tier.Metrics()

	srvs := make([]*WireServer, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		srvs[i] = ServeWire(ln, tier.WireSink(i))
		srvs[i].SetDrainTimeout(20 * time.Millisecond)
	}
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()
	if err := tier.Rebalance(addrs); err != nil {
		t.Fatal(err)
	}

	clients := make([]*ResilientClient, ranks)
	for r := range clients {
		clients[r] = NewResilientClient(
			ShardDialer(r, append([]string(nil), addrs...), met),
			ResilientOptions{
				BackoffBase: 500 * time.Microsecond,
				BackoffMax:  5 * time.Millisecond,
				MaxSpill:    maxSpill,
			})
		clients[r].SetMetrics(met)
		defer clients[r].Close()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				clients[rank].Consume(rank, []trace.Fragment{frag(rank, int64(n)*1000, 500)})
				time.Sleep(200 * time.Microsecond)
			}
		}(r)
	}

	victim := tier.Owner(0) // a shard that certainly owns ranks
	survivorCounts := func() map[int]int {
		out := make(map[int]int)
		for s := 0; s < shards; s++ {
			if s != victim {
				out[s] = tier.Plane(s).fragments()
			}
		}
		return out
	}

	// Two kill/restart cycles, each restart on a fresh port published
	// by a shard-map rebalance (the production shape: a respawned
	// server rarely gets its old address back).
	for cycle := 0; cycle < 2; cycle++ {
		time.Sleep(50 * time.Millisecond)
		before := survivorCounts()
		if err := srvs[victim].Close(); err != nil {
			t.Fatalf("cycle %d: close victim: %v", cycle, err)
		}
		// Outage window: victims spill and evict; survivors keep
		// ticking — the tier merge must complete with shard `victim`
		// contributing only what it already holds.
		time.Sleep(50 * time.Millisecond)
		if res := tier.RunWindow(0, 1<<40); res == nil {
			t.Fatalf("cycle %d: tier merge during outage returned nil", cycle)
		}
		grew := 0
		for s, n := range survivorCounts() {
			if n > before[s] {
				grew++
			}
		}
		if grew == 0 {
			t.Fatalf("cycle %d: no surviving shard grew during the outage", cycle)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[victim] = ln.Addr().String()
		srvs[victim] = ServeWire(ln, tier.WireSink(victim))
		srvs[victim].SetDrainTimeout(20 * time.Millisecond)
		if err := tier.Rebalance(addrs); err != nil {
			t.Fatal(err)
		}
	}

	// Re-attach: the victim shard's ranks must resume landing in its
	// plane through the rebalanced map.
	attachMark := tier.Plane(victim).fragments()
	if !waitUntil(10*time.Second, func() bool {
		return tier.Plane(victim).fragments() > attachMark
	}) {
		t.Fatal("victim shard's ranks never re-attached after restart")
	}

	time.Sleep(25 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Graceful tail: drain every client, then one sentinel batch per
	// rank so trailing losses realize as sequence gaps.
	for r, c := range clients {
		if !c.Drain(10 * time.Second) {
			t.Fatalf("rank %d never drained: %+v", r, c.Stats())
		}
		c.Consume(r, []trace.Fragment{frag(r, 1<<40, 500)})
		if !c.Drain(10 * time.Second) {
			t.Fatalf("rank %d sentinel never drained", r)
		}
	}

	// Per-shard exact loss accounting: what a shard's clients consumed
	// equals what its plane holds plus its tracker's gap count. Both
	// sides live on the plane, so they survived the wire-server
	// restarts. Delivery can trail the drain by a beat; poll.
	consumedBy := make([]uint64, shards)
	var lost uint64
	for r, c := range clients {
		st := c.Stats()
		consumedBy[tier.Owner(r)] += st.Consumed
		lost += st.Lost
		if st.SpillPeak > maxSpill {
			t.Fatalf("rank %d spill peak %d exceeds cap %d", r, st.SpillPeak, maxSpill)
		}
	}
	if lost == 0 {
		t.Fatal("soak produced no spill evictions; outage too short to exercise loss")
	}
	for s := 0; s < shards; s++ {
		s := s
		if !waitUntil(10*time.Second, func() bool {
			delivered := uint64(tier.Plane(s).stats().Batches)
			return consumedBy[s] == delivered+tier.Plane(s).SeqState().GapFrames()
		}) {
			t.Fatalf("shard %d books never balanced: consumed %d != delivered %d + gaps %d (dups %d)",
				s, consumedBy[s], tier.Plane(s).stats().Batches,
				tier.Plane(s).SeqState().GapFrames(), tier.Plane(s).SeqState().Dups())
		}
	}
	if met.ShardMisroutes.Load() != 0 {
		t.Fatalf("misroutes = %d: a batch was delivered to a non-owning shard", met.ShardMisroutes.Load())
	}
	if met.ShardmapRebalances.Load() != 3 {
		t.Fatalf("rebalances = %d, want 3 (initial + two restarts)", met.ShardmapRebalances.Load())
	}
}
