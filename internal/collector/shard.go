package collector

import (
	"fmt"

	"vapro/internal/trace"
	"vapro/internal/wal"
)

// Spatial scale-out (DESIGN §12): one plane is one analysis server, so
// spatial scale stops where one plane's memory and tick budget stop. A
// Pool of several planes splits the rank space itself: a stable hash
// assigns each rank to an owning plane, and every plane runs the
// incremental pipeline (staged intake → graph snapshot → persistent
// analyzer) over only its resident ranks, up to a partial: its window's
// sample streams and time sums. Each tick merges the partials once,
// into one heat map per class and one region growth. Per-plane tick
// cost tracks resident ranks; the merge, the grid and the window.

// splitmix64 is the stable rank hash: the finalizer of the SplitMix64
// generator, fixed forever so a rank's owner never depends on build,
// platform, or map iteration order.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardOwner maps a rank to its owning shard among shards servers. The
// assignment is a pure function of (rank, shards): every client and
// every server computes the same answer from the shard count alone.
func ShardOwner(rank, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(splitmix64(uint64(rank)) % uint64(shards))
}

// ShardMap is the published rank→server assignment: a version and the
// shard servers' dial addresses, in shard order. It travels in the wire
// hello frame (trace.AppendHello) so clients dial their owning server
// directly; ownership itself is ShardOwner(rank, len(Addrs)).
type ShardMap struct {
	Version uint64
	Addrs   []string
}

// ShardedPool is the name the benchmark harness still compiles against.
//
// Deprecated: use Pool, which is n ≥ 1 planes.
type ShardedPool = Pool

// Owner returns the rank's owning plane (ranks outside the provisioned
// space still hash consistently).
func (p *Pool) Owner(rank int) int {
	if rank >= 0 && rank < len(p.owner) {
		return p.owner[rank]
	}
	return ShardOwner(rank, len(p.planes))
}

// ShardMap returns a copy of the published map.
func (p *Pool) ShardMap() ShardMap {
	p.mmu.Lock()
	defer p.mmu.Unlock()
	return ShardMap{Version: p.mp.Version, Addrs: append([]string(nil), p.mp.Addrs...)}
}

// Rebalance publishes a new address set (same plane count — ownership
// is positional) and bumps the map version; subsequent hellos carry it,
// so reconnecting clients re-attach to the restarted server. A
// different address count is rejected: changing the plane count moves
// resident data between planes, which the pool does not do live.
func (p *Pool) Rebalance(addrs []string) error {
	if len(addrs) != len(p.planes) {
		return fmt.Errorf("rebalance: %d addrs for %d shards", len(addrs), len(p.planes))
	}
	p.mmu.Lock()
	defer p.mmu.Unlock()
	p.mp.Addrs = append([]string(nil), addrs...)
	p.mp.Version++
	p.met.ShardmapRebalances.Inc()
	return nil
}

// Consume implements interpose.Sink: stage the batch on the rank's
// owning plane, by that plane's sink (ShardSink.Consume).
func (p *Pool) Consume(rank int, frags []trace.Fragment) {
	i := p.Owner(rank)
	k := ShardSink{pool: p, plane: p.planes[i], shard: i}
	k.Consume(rank, frags)
}

// ConsumeSized stages a batch whose encoded wire size was already
// measured (the wire server passes the payload length it just decoded),
// so the batch is not re-encoded merely for the byte accounting.
func (p *Pool) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	p.deliver(p.planes[p.Owner(rank)], rank, frags, bytes, TraceCtx{}, false)
}

// ConsumeTraced stages a sampled traced batch, carrying its provenance
// context through staging and drain.
func (p *Pool) ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx) {
	p.deliver(p.planes[p.Owner(rank)], rank, frags, bytes, tc, true)
}

// deliver is every batch's one way into the pool: stage it on pl, then,
// when a monitor observes the pool, advance the rank's watermark, which
// analyzes every window all ranks have passed.
func (p *Pool) deliver(pl *plane, rank int, frags []trace.Fragment, bytes int, tc TraceCtx, traced bool) {
	pl.stage(frags, bytes, tc, traced)
	if p.mon != nil {
		p.mon.observe(rank, frags)
	}
}

// registerTierDerived publishes the tier-layer Func metrics on a
// multi-plane pool's tier registry: the shard count, the global rank
// space, and one row per shard for the status surface. The plane-shaped
// sums (servers, staged depth, storage rate, cluster-cache counters,
// fragment-log footprint) are not duplicated here — every plane
// registers its own and MergedSnapshot folds them.
func (p *Pool) registerTierDerived() {
	reg := p.met.Registry
	reg.Func("vapro_shards", "shard",
		"analysis planes in the sharded tier", func() float64 {
			return float64(len(p.planes))
		})
	reg.Func("vapro_ranks", "intake",
		"client ranks the tier was provisioned for", func() float64 {
			return float64(p.ranks)
		})
	for i, pl := range p.planes {
		reg.Func(fmt.Sprintf("vapro_shard%d_resident_ranks", i), "shard",
			fmt.Sprintf("ranks owned by shard %d", i), func() float64 {
				return float64(p.resident[i])
			})
		reg.Func(fmt.Sprintf("vapro_shard%d_intake_staged", i), "shard",
			fmt.Sprintf("batches currently staged on shard %d", i), func() float64 {
				return float64(pl.stagedNow())
			})
		reg.Func(fmt.Sprintf("vapro_shard%d_seq_gaps", i), "shard",
			fmt.Sprintf("batches inferred lost on shard %d", i), func() float64 {
				return float64(pl.met.WireSeqGaps.Load())
			})
		reg.Func(fmt.Sprintf("vapro_shard%d_intake_fragments", i), "shard",
			fmt.Sprintf("fragments received by shard %d", i), func() float64 {
				return float64(pl.met.IntakeFragments.Load())
			})
		reg.Func(fmt.Sprintf("vapro_shard%d_stg_log_bytes", i), "shard",
			fmt.Sprintf("heap bytes of shard %d's resident fragment logs", i), func() float64 {
				return float64(pl.graph.LogStats().Bytes())
			})
	}
}

// WireSink returns the sink one plane's wire server feeds: batches land
// in that plane, sequence gaps book against that plane's tracker, and
// the hello carries the published shard map so clients can verify (or
// discover) their owner.
func (p *Pool) WireSink(shard int) *ShardSink {
	return &ShardSink{pool: p, plane: p.planes[shard], shard: shard}
}

// ShardSink adapts one analysis plane to the wire server's sink
// (sized and traced consumption, sequence state, metrics, journal,
// hello). Built by Pool.WireSink, it delivers through the pool, so a
// monitor observing the pool sees wire-delivered batches exactly like
// in-process ones.
type ShardSink struct {
	pool  *Pool
	plane *plane
	shard int
}

// Consume implements interpose.Sink: the in-process entry onto this
// plane, which Pool.Consume takes too. The batch is encoded once, here
// (outside every lock), so the plane books real wire bytes; while the
// plane has a journal, that encoding is the frame its delivery step
// journals before staging. A batch whose rank the plane does not own is
// still delivered — its samples won't enter the merged result (the
// merge keeps each rank's samples from its owner only) but its loss
// accounting and bytes must not vanish — and counted as a misroute.
func (k *ShardSink) Consume(rank int, frags []trace.Fragment) {
	trace.BatchPayload(rank, frags, func(payload []byte) {
		if d := &k.plane.local; d.jour != nil {
			d.deliver(trace.BatchMeta{Rank: rank}, frags, payload)
		} else {
			k.ConsumeSized(rank, frags, len(payload))
		}
	})
}

// ConsumeSized mirrors Consume for pre-measured wire batches.
func (k *ShardSink) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	k.deliver(rank, frags, bytes, TraceCtx{}, false)
}

// ConsumeTraced mirrors ConsumeSized for sampled traced batches:
// delivery lands in this shard's plane, so its exemplar ring holds the
// journey end to end.
func (k *ShardSink) ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx) {
	k.deliver(rank, frags, bytes, tc, true)
}

func (k *ShardSink) deliver(rank int, frags []trace.Fragment, bytes int, tc TraceCtx, traced bool) {
	if k.pool.Owner(rank) != k.shard {
		k.pool.met.ShardMisroutes.Inc()
	}
	k.pool.deliver(k.plane, rank, frags, bytes, tc, traced)
}

// Metrics exposes this plane's surface to the wire server, so a plane's
// own endpoint (and its wire/trace counters) describe exactly the
// traffic that plane served. Tier-layer counters (misroutes,
// rebalances) stay on the pool's registry.
func (k *ShardSink) Metrics() *Metrics { return k.plane.met }

// SeqState returns this plane's tracker: gap accounting is per plane,
// and survives the plane's wire-server restarts because the tracker
// lives on the plane.
func (k *ShardSink) SeqState() *SeqTracker { return k.plane.seq }

// Journal returns this plane's delivery journal (attached per plane —
// each plane journals its own delivered stream into its own directory,
// so plane restarts replay independently).
func (k *ShardSink) Journal() *wal.Log { return k.plane.Journal() }

// Hello returns the pool's shard map for the wire handshake once
// Rebalance has published one.
func (k *ShardSink) Hello() (version uint64, addrs []string, ok bool) {
	m := k.pool.ShardMap()
	return m.Version, m.Addrs, m.Version > 0
}
