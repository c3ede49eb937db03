package collector

import (
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// ShardedMonitor is the online loop over a rank-sharded tier: it tracks
// the global virtual-time watermark across every rank (whichever shard
// the rank reports through), and when a window completes everywhere it
// fans the analysis out to the per-shard planes and spatially merges
// the results — the merged regions, not any single shard's, drive
// event reporting and progressive counter arming, because the regions
// worth escalating for are exactly the ones that may straddle shards.
// Like Monitor it keeps no fragments of its own: the planes hold the
// one resident copy, and their persistent analyzers stay warm across
// windows.
type ShardedMonitor struct {
	tier *ShardedPool
	windowLoop
}

// NewShardedMonitor wraps a sharded tier with the online analysis
// loop. The per-window detection options are the tier's (its planes
// run them); MonitorOptions contributes the windowing, event filters
// and arming policy.
func NewShardedMonitor(tier *ShardedPool, opt MonitorOptions) *ShardedMonitor {
	return &ShardedMonitor{
		tier:       tier,
		windowLoop: newWindowLoop(opt.normalized(tier.ranks), tier.Armed, tier.RunWindow),
	}
}

// Metrics returns the tier-wide observability surface.
func (m *ShardedMonitor) Metrics() *Metrics { return m.tier.met }

// Tier returns the wrapped sharded pool.
func (m *ShardedMonitor) Tier() *ShardedPool { return m.tier }

// Consume implements interpose.Sink: route to the owning plane, then
// advance the watermark and analyze completed windows.
func (m *ShardedMonitor) Consume(rank int, frags []trace.Fragment) {
	m.tier.Consume(rank, frags)
	m.observe(rank, frags)
}

// ConsumeSized mirrors Consume for pre-measured wire batches.
func (m *ShardedMonitor) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	m.tier.ConsumeSized(rank, frags, bytes)
	m.observe(rank, frags)
}

// ConsumeTraced mirrors ConsumeSized for sampled traced batches.
func (m *ShardedMonitor) ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx) {
	m.tier.ConsumeTraced(rank, frags, bytes, tc)
	m.observe(rank, frags)
}

// WireSink returns the sink one shard's wire server feeds when a
// monitor fronts the tier: delivery goes to the shard's plane, the
// watermark advances globally, and the hello carries the shard map.
func (m *ShardedMonitor) WireSink(shard int) *MonitorShardSink {
	return &MonitorShardSink{sink: m.tier.WireSink(shard), mon: m}
}

// MonitorShardSink is a ShardSink that also drives the monitor's
// watermark, so wire-delivered batches tick windows exactly like
// in-process ones.
type MonitorShardSink struct {
	sink *ShardSink
	mon  *ShardedMonitor
}

// Consume implements interpose.Sink.
func (k *MonitorShardSink) Consume(rank int, frags []trace.Fragment) {
	k.sink.Consume(rank, frags)
	k.mon.observe(rank, frags)
}

// ConsumeSized mirrors Consume for pre-measured wire batches.
func (k *MonitorShardSink) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	k.sink.ConsumeSized(rank, frags, bytes)
	k.mon.observe(rank, frags)
}

// ConsumeTraced mirrors ConsumeSized for sampled traced batches.
func (k *MonitorShardSink) ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx) {
	k.sink.ConsumeTraced(rank, frags, bytes, tc)
	k.mon.observe(rank, frags)
}

// Metrics exposes the shared tier surface.
func (k *MonitorShardSink) Metrics() *Metrics { return k.sink.Metrics() }

// SeqState returns the shard's tracker.
func (k *MonitorShardSink) SeqState() *SeqTracker { return k.sink.SeqState() }

// Journal returns the shard's delivery journal.
func (k *MonitorShardSink) Journal() *wal.Log { return k.sink.Journal() }

// Hello returns the current shard map for the wire handshake.
func (k *MonitorShardSink) Hello() (uint64, []string, bool) { return k.sink.Hello() }
