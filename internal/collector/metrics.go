package collector

import (
	"encoding/json"
	"net/http"
	"time"

	"vapro/internal/cluster"
	"vapro/internal/detect"
	"vapro/internal/interpose"
	"vapro/internal/obs"
)

// Metrics is the collector's self-observability surface: one registry
// per plane, threaded through every layer a fragment crosses — the
// client shim, the wire transport, the staged intake, the per-window
// analysis and its clustering cache. Handles are plain atomics; the hot
// paths never touch the registry. §6.2's self-overhead accounting
// (storage rate, analysis latency, interception cost) is exactly what
// this surface makes continuously visible.
type Metrics struct {
	Registry *obs.Registry

	// Intake (staged shards → graph merge).
	IntakeBatches    *obs.Counter
	IntakeFragments  *obs.Counter
	IntakeBytes      *obs.Counter
	IntakeStalls     *obs.Counter // consumers that hit the staged-backlog bound
	IntakeDrains     *obs.Counter // drain sweeps that merged at least one batch
	IntakeStagedPeak *obs.Gauge   // high-water mark of the staged backlog
	DrainBatches     *obs.Histogram

	// Wire transport (framed TCP ingestion).
	WireConns          *obs.Counter
	WireFrames         *obs.Counter
	WireBytes          *obs.Counter
	WireFramesRejected *obs.Counter // any frame that killed its connection
	WireDecodeErrors   *obs.Counter // subset: payloads DecodeBatchMeta refused
	WirePanics         *obs.Counter // subset: decoder panics caught by recover
	WireSeqGaps        *obs.Counter // batches inferred lost from sequence gaps
	WireDups           *obs.Counter // duplicate batches suppressed (retransmits)

	// Net is the resilient client's surface: connection churn and the
	// fate of every batch that could not be shipped immediately.
	NetDials         *obs.Counter // dial attempts (including failures)
	NetConnects      *obs.Counter // dials that produced a connection
	NetReconnects    *obs.Counter // connections established after the first
	NetBatchesSent   *obs.Counter // frames written to a live connection
	NetBatchesLost   *obs.Counter // batches evicted from the spill queue
	NetWriteTimeouts *obs.Counter // writes that exceeded the deadline
	NetSpillDepth    *obs.Gauge   // batches currently spilled awaiting a connection
	NetSpillPeak     *obs.Gauge   // high-water mark of the spill queue
	NetSpillBytes    *obs.Gauge   // encoded bytes currently spilled in memory

	// Shard is the spatial scale-out surface: merged strips, region
	// stitches and merge latency per tier tick, shard-map version churn,
	// and the routing
	// corrections (redirects are clients re-dialed to their owner after
	// a hello; misroutes are batches that arrived at a non-owning shard
	// and were delivered anyway).
	ShardStripsMerged    *obs.Counter
	ShardRegionsStitched *obs.Counter
	ShardMergeNS         *obs.Histogram // one tier tick's Merger.Merge
	ShardmapRebalances   *obs.Counter
	ShardRedirects       *obs.Counter
	ShardMisroutes       *obs.Counter

	// Detect is the per-window analysis surface (latency, stage spans).
	Detect *detect.Metrics
	// Client is the interposition-layer surface shared by traced ranks.
	Client *interpose.Metrics

	// Trace is the batch provenance sampler: exemplar journeys of wire
	// batches from client flush to first analyzed tick.
	Trace *obs.Trace
}

// NewMetrics builds a registry with every collector metric registered.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		Registry: reg,
		IntakeBatches: reg.Counter("vapro_intake_batches_total", "intake",
			"client batches staged by servers"),
		IntakeFragments: reg.Counter("vapro_intake_fragments_total", "intake",
			"fragments staged by servers"),
		IntakeBytes: reg.Counter("vapro_intake_bytes_total", "intake",
			"wire-encoded bytes received (the §6.2 storage volume)"),
		IntakeStalls: reg.Counter("vapro_intake_stalls_total", "intake",
			"consumers that found the staged backlog at its bound and drained synchronously"),
		IntakeDrains: reg.Counter("vapro_intake_drains_total", "intake",
			"drain sweeps that merged at least one staged batch"),
		IntakeStagedPeak: reg.Gauge("vapro_intake_staged_peak", "intake",
			"high-water mark of batches staged at once across servers"),
		DrainBatches: reg.Histogram("vapro_intake_drain_batches", "intake",
			"batches merged per drain sweep", obs.CountBounds()),
		WireConns: reg.Counter("vapro_wire_conns_total", "wire",
			"client connections accepted"),
		WireFrames: reg.Counter("vapro_wire_frames_total", "wire",
			"frames decoded and consumed"),
		WireBytes: reg.Counter("vapro_wire_bytes_total", "wire",
			"payload bytes of accepted frames"),
		WireFramesRejected: reg.Counter("vapro_wire_frames_rejected_total", "wire",
			"frames that terminated their connection (oversized, torn, undecodable)"),
		WireDecodeErrors: reg.Counter("vapro_wire_decode_errors_total", "wire",
			"payloads DecodeBatchMeta refused"),
		WirePanics: reg.Counter("vapro_wire_panics_total", "wire",
			"per-connection panics contained by recover"),
		WireSeqGaps: reg.Counter("vapro_wire_seq_gaps_total", "wire",
			"batches inferred lost from per-rank sequence gaps"),
		WireDups: reg.Counter("vapro_wire_dups_total", "wire",
			"duplicate batches suppressed by sequence tracking"),
		NetDials: reg.Counter("vapro_net_dials_total", "net",
			"dial attempts by the resilient client (including failures)"),
		NetConnects: reg.Counter("vapro_net_connects_total", "net",
			"dials that produced a live connection"),
		NetReconnects: reg.Counter("vapro_net_reconnects_total", "net",
			"connections re-established after the first"),
		NetBatchesSent: reg.Counter("vapro_net_batches_sent_total", "net",
			"frames written to a live connection"),
		NetBatchesLost: reg.Counter("vapro_net_batches_lost_total", "net",
			"batches evicted from the bounded spill queue"),
		NetWriteTimeouts: reg.Counter("vapro_net_write_timeouts_total", "net",
			"writes abandoned after exceeding the write deadline"),
		NetSpillDepth: reg.Gauge("vapro_net_spill_depth", "net",
			"batches currently spilled awaiting a connection"),
		NetSpillPeak: reg.Gauge("vapro_net_spill_peak", "net",
			"high-water mark of the spill queue"),
		NetSpillBytes: reg.Gauge("vapro_net_spill_bytes", "net",
			"encoded frame bytes held in the in-memory spill queue"),
		ShardStripsMerged: reg.Counter("vapro_shard_strips_merged_total", "shard",
			"(class, plane) pairs binned into the tier's merged heat maps"),
		ShardRegionsStitched: reg.Counter("vapro_shard_regions_stitched_total", "shard",
			"merged variance regions spanning more than one shard's ranks"),
		ShardMergeNS: reg.Histogram("vapro_shard_merge_ns", "shard",
			"wall time of the tier's merge of its planes' partials per window", nil),
		ShardmapRebalances: reg.Counter("vapro_shardmap_rebalances_total", "shard",
			"shard-map versions published (server set changes)"),
		ShardRedirects: reg.Counter("vapro_shard_redirects_total", "shard",
			"clients re-dialed to their owning shard after a hello"),
		ShardMisroutes: reg.Counter("vapro_shard_misroutes_total", "shard",
			"batches accepted by a shard that does not own their rank"),
		Detect: detect.NewMetrics(reg),
		Client: interpose.NewMetrics(reg),
		Trace:  obs.NewTrace(reg, "trace", 0, 0),
	}
	return m
}

// Metrics returns the pool's observability surface: its one plane's, or
// over several planes the tier registry (shard counters and per-shard
// rows). Per-plane ingestion counters live on each plane's own registry;
// MergedSnapshot folds everything together.
func (p *Pool) Metrics() *Metrics { return p.met }

// MergedSnapshot folds the pool's registry and every plane's into one
// snapshot: counters and summing Funcs add, gauges take the max,
// histograms merge bucket-wise with exact quantile semantics. Over one
// plane it is that plane's snapshot.
func (p *Pool) MergedSnapshot() obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(p.mets))
	for _, m := range p.mets {
		snaps = append(snaps, m.Registry.Snapshot())
	}
	return obs.MergeSnapshots(snaps)
}

// mergedTrace folds every plane's exemplar journeys into one snapshot,
// slowest first.
func (p *Pool) mergedTrace() obs.TraceSnapshot {
	snaps := make([]obs.TraceSnapshot, 0, len(p.planes))
	for _, pl := range p.planes {
		snaps = append(snaps, pl.met.Trace.Snapshot())
	}
	return obs.MergeTraceSnapshots(snaps)
}

// Handler serves the pool's one observability surface over HTTP: the
// merged registry view (Prometheus text or JSON; see
// obs.SnapshotHandler), /trace (merged exemplar journeys) and /fleet
// (the FleetStatus JSON of a Health call made for the read).
func (p *Pool) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.SnapshotHandler(p.MergedSnapshot))
	mux.Handle("/trace", obs.TraceHandler(p.mergedTrace))
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, _ *http.Request) {
		st := p.Health(time.Now().UnixNano())
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(&st)
	})
	return mux
}

// Metrics returns the plane's own observability surface.
func (pl *plane) Metrics() *Metrics { return pl.met }

// registerDerived adds the plane-shaped Func metrics: values owned by
// other layers as live atomics (staged depth, cache counters) or
// derived from counters already registered (the §6.2 storage rate),
// computed at snapshot time so nothing is double-accounted.
func (pl *plane) registerDerived() {
	reg := pl.met.Registry
	reg.Func("vapro_intake_staged", "intake",
		"batches currently staged", func() float64 {
			return float64(pl.stagedNow())
		})
	reg.Func("vapro_servers", "intake",
		"analysis servers (1 per plane; a tier's merged value is its shard count)", func() float64 {
			return 1
		})
	reg.Func("vapro_ranks", "intake",
		"client ranks the pool was provisioned for", func() float64 {
			return float64(pl.ranks)
		})
	reg.Func("vapro_storage_bytes_per_rank_second", "intake",
		"received bytes per rank per wall second (§6.2 storage rate)", func() float64 {
			sec := pl.met.Registry.Uptime().Seconds()
			if sec <= 0 || pl.ranks == 0 {
				return 0
			}
			return float64(pl.met.IntakeBytes.Load()) / sec / float64(pl.ranks)
		})
	reg.Func("vapro_stg_log_bytes", "stg",
		"heap bytes of the resident columnar fragment logs", func() float64 {
			return float64(pl.graph.LogStats().Bytes())
		})
	reg.Func("vapro_stg_log_chunks", "stg",
		"fixed-size chunks allocated by the resident fragment logs", func() float64 {
			return float64(pl.graph.LogStats().Chunks())
		})
	reg.Func("vapro_stg_log_lanes_live", "stg",
		"lane arrays materialised in those chunks (fields that varied within a chunk)", func() float64 {
			return float64(pl.graph.LogStats().Lanes())
		})
	reg.Func("vapro_stg_log_lanes_wide", "stg",
		"lanes widened to 64-bit arrays in those chunks, start and elapsed included (deltas past int32)", func() float64 {
			return float64(pl.graph.LogStats().Wide())
		})
	registerCacheDerived(reg, pl.an.Cache())
}

// registerCacheDerived publishes one clustering cache's counters as
// Func metrics: the plane analyzer's, which is the cache window analyses
// run on whether or not a Monitor fronts the pool.
func registerCacheDerived(reg *obs.Registry, cache *cluster.Cache) {
	reg.Func("vapro_cluster_cache_hits", "cluster",
		"analysis passes that reused a memoized clustering", func() float64 {
			h, _ := cache.Stats()
			return float64(h)
		})
	reg.Func("vapro_cluster_cache_misses", "cluster",
		"analysis passes that fully re-clustered an element", func() float64 {
			_, mi := cache.Stats()
			return float64(mi)
		})
	reg.Func("vapro_cluster_cache_evictions", "cluster",
		"memoized clusterings discarded (stale overwrites)", func() float64 {
			return float64(cache.Evictions())
		})
	reg.Func("vapro_cluster_cache_entries", "cluster",
		"elements currently memoized", func() float64 {
			return float64(cache.Len())
		})
	reg.Func("vapro_cluster_cache_inc_hits", "cluster",
		"element growths absorbed by the incremental delta-clustering path", func() float64 {
			h, _, _ := cache.IncStats()
			return float64(h)
		})
	reg.Func("vapro_cluster_cache_inc_fallbacks", "cluster",
		"incremental updates abandoned for a full re-cluster: the element changed vector shape", func() float64 {
			_, f, _ := cache.IncStats()
			return float64(f)
		})
	reg.Func("vapro_cluster_cache_inc_recuts", "cluster",
		"incremental updates that re-cut resident clusters an appended fragment's band reached", func() float64 {
			_, _, r := cache.IncStats()
			return float64(r)
		})
	reg.Func("vapro_cluster_assign_bytes", "cluster",
		"heap bytes of the cached clusterings' label chunks (Assign: a cluster label per resident fragment)", func() float64 {
			return float64(cache.AssignBytes())
		})
	reg.Func("vapro_cluster_cache_stale_rejects", "cluster",
		"reads at an older generation than the cached entry (answered one-off, entry kept)", func() float64 {
			return float64(cache.StaleRejects())
		})
}
