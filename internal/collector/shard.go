package collector

import (
	"fmt"
	"net/http"
	"sync"

	"vapro/internal/detect"
	"vapro/internal/interpose"
	"vapro/internal/obs"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// Spatial scale-out (DESIGN §12): one Pool is one analysis server that
// holds every rank, so spatial scale stops where one plane's memory and
// tick budget stop. The sharded tier splits the rank space itself: a
// stable hash assigns each rank to an owning shard, and every shard runs
// the incremental pipeline (staged intake → graph snapshot → persistent
// analyzer) over only its resident ranks, up to a partial: its window's
// sample streams and time sums. Each tier tick merges the partials once,
// into one heat map per class and one region growth. Per-shard tick
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

// Shards returns the shard count the map describes.
func (m ShardMap) Shards() int { return len(m.Addrs) }

// Owner returns the rank's owning shard under this map.
func (m ShardMap) Owner(rank int) int { return ShardOwner(rank, len(m.Addrs)) }

// ShardedPool is the rank-sharded server tier: one analysis plane
// (a full Pool) per shard — each with its own metrics registry, so a
// shard's endpoint describes that shard truthfully — plus a tier
// registry for the shard-layer counters (misroutes, rebalances, merge
// accounting) and the per-shard status rows. The tier's Handler serves
// the *merge* of every registry (counters sum, gauges max, histograms
// bucket-wise), so one scrape still sees the whole tier. It implements
// interpose.Sink — in-process producers route by owner; wire producers
// get a per-shard sink from WireSink.
type ShardedPool struct {
	opt    Options
	ranks  int
	met    *Metrics
	Armed  *interpose.Armed
	planes []*Pool
	owner  []int // precomputed ShardOwner per rank

	// mmu guards the published shard map (address set + version).
	mmu sync.Mutex
	mp  ShardMap

	// amu serializes tier merges: the Merger's region carry is warm
	// state threaded from tick to tick (counted on the tier registry).
	amu    sync.Mutex
	merger *detect.Merger
}

// NewShardedPool builds shards analysis planes over a global rank space
// of size ranks. Each plane is one server that holds its resident ranks
// only and shares the tier's arming handle; its window pass stops at a
// partial, and the tier bins every plane's samples into one grid.
func NewShardedPool(ranks, shards int, opt Options) *ShardedPool {
	if shards < 1 {
		shards = 1
	}
	if opt.Period <= 0 {
		opt.Period = 15 * sim.Second
	}
	if opt.Overlap <= 0 || opt.Overlap >= opt.Period {
		opt.Overlap = opt.Period / 2
	}
	t := &ShardedPool{
		opt:    opt,
		ranks:  ranks,
		met:    NewMetrics(),
		Armed:  interpose.NewArmed(sim.GroupBase | sim.GroupTopdownL1 | sim.GroupOS),
		owner:  make([]int, ranks),
		mp:     ShardMap{Addrs: make([]string, shards)},
		merger: detect.NewMerger(),
	}
	t.merger.SetMetrics(t.met.Detect)
	resident := make([]int, shards)
	for r := 0; r < ranks; r++ {
		t.owner[r] = ShardOwner(r, shards)
		resident[t.owner[r]]++
	}
	for i := 0; i < shards; i++ {
		// Each plane owns a full registry (derived Funcs included): the
		// per-shard endpoints serve it directly, and the tier view is the
		// merge. vapro_ranks merges by max and the per-plane storage rate
		// divides by the global rank count, so the merged values read
		// exactly like the single-plane ones.
		plane := NewPool(ranks, opt)
		plane.Armed = t.Armed
		t.planes = append(t.planes, plane)
	}
	t.registerTierDerived(resident)
	return t
}

// Shards returns the shard count.
func (t *ShardedPool) Shards() int { return len(t.planes) }

// Ranks returns the global rank-space size.
func (t *ShardedPool) Ranks() int { return t.ranks }

// Owner returns the rank's owning shard (ranks outside the provisioned
// space still hash consistently).
func (t *ShardedPool) Owner(rank int) int {
	if rank >= 0 && rank < len(t.owner) {
		return t.owner[rank]
	}
	return ShardOwner(rank, len(t.planes))
}

// Plane exposes one shard's analysis plane (tests and the status
// surface read per-shard state through it).
func (t *ShardedPool) Plane(shard int) *Pool { return t.planes[shard] }

// ShardMap returns a copy of the published map.
func (t *ShardedPool) ShardMap() ShardMap {
	t.mmu.Lock()
	defer t.mmu.Unlock()
	return ShardMap{Version: t.mp.Version, Addrs: append([]string(nil), t.mp.Addrs...)}
}

// Rebalance publishes a new address set (same shard count — ownership
// is positional) and bumps the map version; subsequent hellos carry it,
// so reconnecting clients re-attach to the restarted server. A
// different address count is rejected: changing the shard count moves
// resident data between planes, which this tier does not do live.
func (t *ShardedPool) Rebalance(addrs []string) error {
	if len(addrs) != len(t.planes) {
		return fmt.Errorf("rebalance: %d addrs for %d shards", len(addrs), len(t.planes))
	}
	t.mmu.Lock()
	defer t.mmu.Unlock()
	t.mp.Addrs = append([]string(nil), addrs...)
	t.mp.Version++
	t.met.ShardmapRebalances.Inc()
	return nil
}

// Consume implements interpose.Sink: route to the rank's owning plane.
func (t *ShardedPool) Consume(rank int, frags []trace.Fragment) {
	t.planes[t.Owner(rank)].Consume(rank, frags)
}

// ConsumeSized mirrors Consume for pre-measured wire batches.
func (t *ShardedPool) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	t.planes[t.Owner(rank)].ConsumeSized(rank, frags, bytes)
}

// ConsumeTraced mirrors ConsumeSized for sampled traced batches.
func (t *ShardedPool) ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx) {
	t.planes[t.Owner(rank)].ConsumeTraced(rank, frags, bytes, tc)
}

// Close drains every plane's staged batches (see Pool.Close).
func (t *ShardedPool) Close() {
	for _, p := range t.planes {
		p.Close()
	}
}

// Metrics returns the tier-layer observability surface: the shard
// counters (misroutes, rebalances, merge accounting) and the client-
// side Net* mirrors. Per-plane ingestion counters live on each plane's
// own registry; MergedSnapshot folds everything together.
func (t *ShardedPool) Metrics() *Metrics { return t.met }

// MergedSnapshot folds the tier registry and every plane's registry
// into one snapshot: counters and summing Funcs add, gauges take the
// max, histograms merge bucket-wise with exact quantile semantics.
func (t *ShardedPool) MergedSnapshot() obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(t.planes)+1)
	snaps = append(snaps, t.met.Registry.Snapshot())
	for _, p := range t.planes {
		snaps = append(snaps, p.met.Registry.Snapshot())
	}
	return obs.MergeSnapshots(snaps)
}

// MergedTrace folds every plane's exemplar journeys into one snapshot,
// slowest first.
func (t *ShardedPool) MergedTrace() obs.TraceSnapshot {
	snaps := make([]obs.TraceSnapshot, 0, len(t.planes))
	for _, p := range t.planes {
		snaps = append(snaps, p.met.Trace.Snapshot())
	}
	return obs.MergeTraceSnapshots(snaps)
}

// Handler serves the tier's merged registry view plus /trace (merged
// exemplar journeys).
func (t *ShardedPool) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.SnapshotHandler(t.MergedSnapshot))
	mux.Handle("/trace", obs.TraceHandler(t.MergedTrace))
	return mux
}

// SeqStateFor returns one shard's sequence tracker (per-shard loss
// accounting; the tier has no global tracker because sequence spaces
// are per client connection, which is per shard).
func (t *ShardedPool) SeqStateFor(shard int) *SeqTracker { return t.planes[shard].seq }

// RunWindow is the tier's steady-state tick: fan the window out to
// every plane's incremental pipeline concurrently, each stopping at its
// partial, then merge the partials into one global result.
func (t *ShardedPool) RunWindow(start, end int64) *detect.Result {
	res, _ := t.RunWindowStats(start, end)
	return res
}

// RunWindowStats is RunWindow plus the merge accounting.
func (t *ShardedPool) RunWindowStats(start, end int64) (*detect.Result, detect.MergeStats) {
	return t.runWindow(start, end, t.outageOptions())
}

// outageOptions returns the detection options with every shard's loss
// intervals: the merge marks them all, so a rank's staleness lands in
// its row even if the batch exposing it was misrouted.
func (t *ShardedPool) outageOptions() detect.Options {
	dopt := t.opt.Detect
	dopt.Outages = nil
	for _, p := range t.planes {
		dopt.Outages = append(dopt.Outages, p.seq.Outages()...)
	}
	return dopt
}

// runWindow fans one window out to every plane's partial and merges
// the partials under dopt.
func (t *ShardedPool) runWindow(start, end int64, dopt detect.Options) (*detect.Result, detect.MergeStats) {
	parts := make([]*detect.Result, len(t.planes))
	var wg sync.WaitGroup
	for i, p := range t.planes {
		wg.Add(1)
		go func(i int, p *Pool) {
			defer wg.Done()
			parts[i] = p.analyze(func(g *stg.Graph) *detect.Result { return p.an.Partial(g, p.opt.Detect, start, end) })
		}(i, p)
	}
	wg.Wait()
	t.amu.Lock()
	defer t.amu.Unlock()
	res, stats := t.merger.Merge(parts, t.ranks, t.Owner, dopt)
	t.met.ShardStripsMerged.Add(uint64(stats.Strips))
	t.met.ShardRegionsStitched.Add(uint64(stats.Stitched))
	return res, stats
}

// WindowResults mirrors Pool.WindowResults over the tier: the global
// window grid spans every plane's data, and each window is a tier tick.
func (t *ShardedPool) WindowResults() []*WindowResult {
	return t.WindowResultsRange(0, 0)
}

// WindowResultsRange mirrors Pool.WindowResultsRange over the tier: the
// same grid, filtered to [from, to) (to <= 0: end of data), each window
// a tier tick against one snapshot of every shard's outages.
func (t *ShardedPool) WindowResultsRange(from, to int64) []*WindowResult {
	maxEnd := int64(0)
	for _, p := range t.planes {
		if _, e, ok := p.viewBounds(); ok {
			maxEnd = max(maxEnd, e)
		}
	}
	covered := func(start, end int64) bool {
		for _, p := range t.planes {
			if p.viewOverlaps(start, end) {
				return true
			}
		}
		return false
	}
	dopt := t.outageOptions()
	return windowGrid(t.opt, maxEnd, from, to, covered, func(start, end int64) *detect.Result {
		res, _ := t.runWindow(start, end, dopt)
		return res
	})
}

// Graph merges every plane into one fresh global STG (final
// whole-run analysis and reports; the caller owns the result).
func (t *ShardedPool) Graph() *stg.Graph {
	g := stg.New()
	for _, p := range t.planes {
		g.Merge(p.Graph())
	}
	return g
}

// FragmentCount sums resident fragments across planes.
func (t *ShardedPool) FragmentCount() int {
	n := 0
	for _, p := range t.planes {
		n += p.FragmentCount()
	}
	return n
}

// Stats aggregates transport statistics across planes.
func (t *ShardedPool) Stats(makespan sim.Duration) Stats {
	var st Stats
	for _, p := range t.planes {
		ps := p.Stats(makespan)
		st.Servers += ps.Servers
		st.Fragments += ps.Fragments
		st.BytesIn += ps.BytesIn
		st.Batches += ps.Batches
		st.SeqGaps += ps.SeqGaps
		st.DupFrames += ps.DupFrames
		st.Outages += ps.Outages
		st.IntakeStalls += ps.IntakeStalls
		st.FramesRejected += ps.FramesRejected
		if ps.MaxStagedDepth > st.MaxStagedDepth {
			st.MaxStagedDepth = ps.MaxStagedDepth
		}
	}
	if sec := makespan.Seconds(); sec > 0 && t.ranks > 0 {
		st.BytesPerRankSecond = float64(st.BytesIn) / sec / float64(t.ranks)
	}
	return st
}

// registerTierDerived publishes the tier-layer Func metrics on the tier
// registry: the shard count, the global rank space, and one row per
// shard for the status surface. The pool-shaped sums (servers, staged
// depth, storage rate, cluster-cache counters, fragment-log footprint)
// are no longer duplicated here — every plane registers its own and
// MergedSnapshot folds them.
func (t *ShardedPool) registerTierDerived(resident []int) {
	reg := t.met.Registry
	reg.Func("vapro_shards", "shard",
		"analysis planes in the sharded tier", func() float64 {
			return float64(len(t.planes))
		})
	reg.Func("vapro_ranks", "intake",
		"client ranks the tier was provisioned for", func() float64 {
			return float64(t.ranks)
		})
	for i := range t.planes {
		i := i
		reg.Func(fmt.Sprintf("vapro_shard%d_resident_ranks", i), "shard",
			fmt.Sprintf("ranks owned by shard %d", i), func() float64 {
				return float64(resident[i])
			})
		reg.Func(fmt.Sprintf("vapro_shard%d_intake_staged", i), "shard",
			fmt.Sprintf("batches currently staged on shard %d", i), func() float64 {
				return float64(t.planes[i].stagedNow())
			})
		reg.Func(fmt.Sprintf("vapro_shard%d_seq_gaps", i), "shard",
			fmt.Sprintf("batches inferred lost on shard %d", i), func() float64 {
				return float64(t.planes[i].seq.GapFrames())
			})
		reg.Func(fmt.Sprintf("vapro_shard%d_intake_fragments", i), "shard",
			fmt.Sprintf("fragments received by shard %d", i), func() float64 {
				return float64(t.planes[i].met.IntakeFragments.Load())
			})
		reg.Func(fmt.Sprintf("vapro_shard%d_stg_log_bytes", i), "shard",
			fmt.Sprintf("heap bytes of shard %d's resident fragment logs", i), func() float64 {
				return float64(t.planes[i].graph.LogStats().Bytes())
			})
	}
}

// WireSink returns the sink one shard's wire server feeds: batches land
// in that shard's plane, sequence gaps book against that shard's
// tracker, and the hello carries the current shard map so clients can
// verify (or discover) their owner.
func (t *ShardedPool) WireSink(shard int) *ShardSink {
	return &ShardSink{plane: t.planes[shard], tier: t, shard: shard}
}

// ShardSink adapts one analysis plane to the wire server's sink
// interfaces (sized consumption, sequence state, metrics, hello). Built
// by Monitor.WireSink, it also advances the monitor's watermark, so
// wire-delivered batches tick windows exactly like in-process ones.
type ShardSink struct {
	plane *Pool
	tier  *ShardedPool // nil for a monitor's one plane: no shard map
	shard int
	mon   *Monitor // nil when no monitor fronts the plane
}

// Consume implements interpose.Sink. A batch whose rank the shard does
// not own is still delivered — its samples won't enter the merged result
// (the merge keeps each rank's samples from its owner only) but its
// loss accounting and bytes must not vanish — and counted as a misroute.
func (k *ShardSink) Consume(rank int, frags []trace.Fragment) {
	k.note(rank)
	k.plane.Consume(rank, frags)
	k.observe(rank, frags)
}

// ConsumeSized mirrors Consume for pre-measured wire batches.
func (k *ShardSink) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	k.note(rank)
	k.plane.ConsumeSized(rank, frags, bytes)
	k.observe(rank, frags)
}

// ConsumeTraced mirrors ConsumeSized for sampled traced batches:
// delivery lands in this shard's plane, so its exemplar ring holds the
// journey end to end.
func (k *ShardSink) ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx) {
	k.note(rank)
	k.plane.ConsumeTraced(rank, frags, bytes, tc)
	k.observe(rank, frags)
}

func (k *ShardSink) note(rank int) {
	if k.tier != nil && k.tier.Owner(rank) != k.shard {
		k.tier.met.ShardMisroutes.Inc()
	}
}

func (k *ShardSink) observe(rank int, frags []trace.Fragment) {
	if k.mon != nil {
		k.mon.observe(rank, frags)
	}
}

// Metrics exposes this shard's plane surface to the wire server, so a
// shard's own endpoint (and its wire/trace counters) describe exactly
// the traffic that shard served. Tier-layer counters (misroutes,
// rebalances) stay on the tier registry.
func (k *ShardSink) Metrics() *Metrics { return k.plane.met }

// SeqState returns this shard's tracker: gap accounting is per shard,
// and survives the shard's wire-server restarts because the tracker
// lives on the plane.
func (k *ShardSink) SeqState() *SeqTracker { return k.plane.seq }

// Journal returns this shard's delivery journal (attached per plane —
// each shard journals its own delivered stream into its own directory,
// so shard restarts replay independently).
func (k *ShardSink) Journal() *wal.Log { return k.plane.Journal() }

// Hello returns the current shard map for the wire handshake; a plane
// outside a tier publishes none (WireServer.SetHello supplies one).
func (k *ShardSink) Hello() (version uint64, addrs []string, ok bool) {
	if k.tier == nil {
		return 0, nil, false
	}
	m := k.tier.ShardMap()
	return m.Version, m.Addrs, true
}
