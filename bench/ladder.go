package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vapro/internal/collector"
	"vapro/internal/detect"
	"vapro/internal/heatmap"
	"vapro/internal/obs"
	"vapro/internal/stg"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// ladderFrags is how much of the stream the ladder replays at scale 1.
const ladderFrags = 500_000

// spanLog records nested spans from one goroutine: begin pushes, end
// pops, and a span's parent is whatever was open when it began.
type spanLog struct {
	base  time.Time
	spans []span
	open  []int // indices into spans
}

func (l *spanLog) begin(name string, rank, seq int) {
	sp := span{ID: len(l.spans) + 1, Name: name, Rank: rank, Seq: seq}
	if n := len(l.open); n > 0 {
		sp.Parent = l.spans[l.open[n-1]].ID
	}
	l.open = append(l.open, len(l.spans))
	l.spans = append(l.spans, sp)
	l.spans[len(l.spans)-1].Start = int64(time.Since(l.base))
}

func (l *spanLog) end() {
	now := int64(time.Since(l.base))
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.spans[i].End = now
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make(map[string]int64)
	for i := range spans {
		sp := &spans[i]
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), sp.Start
		for _, k := range kids {
			s, e := spans[k].Start, spans[k].End
			if s < edge {
				s = edge
			}
			if e > sp.End {
				e = sp.End
			}
			if e > s {
				covered += e - s
				edge = e
			}
		}
		self[sp.Name] += sp.End - sp.Start - covered
	}
	return self
}

// Ladder layer names, in pipeline order. sinkLayers are the ones that
// run inside a sink call on the live path (what the probe can see).
var (
	ladderLayers = []string{
		"trace.encode", "trace.decode", "seq.observe", "wal.append",
		"pool.consume", "stg.addbatch", "detect.runwindow", "detect.spatial.merge",
	}
	sinkLayers = []string{"pool.consume", "stg.addbatch", "detect.runwindow", "detect.spatial.merge"}
)

// ladderResult is the single-threaded per-layer cost of one workload's
// stream.
type ladderResult struct {
	frags, batches int
	self           map[string]int64 // ns of self time per layer
	frameBytes     []float64
	windowMS       []float64 // detect.runwindow per closed window (all planes summed)
	mergeMS        []float64
	stageShare     map[string]float64
	walBytes       int64
	walSegments    int
	walReplayNS    int64
	vertices       int
	edges          int
	clusterNS      int64 // Σ vapro_detect_stage_cluster_ns
	spans          []span
}

func (r *ladderResult) perFrag(layer string) float64 {
	return float64(r.self[layer]) / float64(r.frags)
}

func (r *ladderResult) sum(layers []string) float64 {
	t := 0.0
	for _, l := range layers {
		t += r.perFrag(l)
	}
	return t
}

// fragSpan mirrors the wire server's per-frame scan for outage
// bookkeeping.
func fragSpan(frags []trace.Fragment) (minStart, maxEnd int64) {
	minStart, maxEnd = math.MaxInt64, math.MinInt64
	for i := range frags {
		if frags[i].Start < minStart {
			minStart = frags[i].Start
		}
		if e := frags[i].End(); e > maxEnd {
			maxEnd = e
		}
	}
	return minStart, maxEnd
}

// runLadder replays the first batches of the stream through each
// layer's public entry point, in pipeline order, on one goroutine,
// timing every call. It is the single-threaded baseline of the same
// job the live stack does.
func runLadder(s *stream, batches int, tmp string) (*ladderResult, error) {
	sp := s.sp
	copt, _ := sp.options()
	dopt := copt.Detect
	res := &ladderResult{batches: batches, frags: batches * sp.batch, stageShare: map[string]float64{}}
	log := &spanLog{base: time.Now()}

	var (
		pool     *collector.Pool
		tier     *collector.ShardedPool
		graph    *stg.Graph
		analyzer *detect.Analyzer
		merger   *detect.Merger
		regs     []*obs.Registry
	)
	if sp.shards > 1 {
		tier = collector.NewShardedPool(sp.ranks, sp.shards, copt)
		defer tier.Close()
		merger = detect.NewMerger()
		for i := 0; i < sp.shards; i++ {
			regs = append(regs, tier.Plane(i).Metrics().Registry)
		}
	} else {
		pool = collector.NewPool(sp.ranks, copt)
		defer pool.Close()
		graph = stg.New()
		analyzer = detect.NewAnalyzer()
		reg := obs.NewRegistry()
		analyzer.SetMetrics(detect.NewMetrics(reg))
		regs = append(regs, reg)
	}
	seq := collector.NewSeqTracker()
	var jlog *wal.Log
	if sp.journal {
		dir := filepath.Join(tmp, "ladder-journal")
		l, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return nil, err
		}
		jlog = l
		defer func() { _ = jlog.Close(); _ = os.RemoveAll(dir) }()
	}

	// STG elements the replayed fragments land on (asking the tier for
	// its merged graph would copy every resident fragment).
	vertices, edges := map[uint64]bool{}, map[trace.EdgeKey]bool{}
	high := make([]int64, sp.ranks)
	seen := 0
	nextEnd := int64(sp.period)
	var last *detect.Result
	var buf []byte
	for b := 0; b < batches; b++ {
		rank, frags := s.batch(b)
		round := b / sp.ranks
		log.begin("ladder.batch", rank, round)

		log.begin("trace.encode", rank, round)
		buf = trace.AppendBatchTraced(buf[:0], rank, uint64(round), 1, time.Now().UnixNano(), frags)
		log.end()
		res.frameBytes = append(res.frameBytes, float64(len(buf)))

		log.begin("trace.decode", rank, round)
		meta, dec, err := trace.DecodeBatchMeta(buf)
		log.end()
		if err != nil {
			return nil, err
		}

		log.begin("seq.observe", rank, round)
		lo, hi := fragSpan(dec)
		seq.Observe(meta.Rank, meta.Seq, lo, hi)
		log.end()

		if jlog != nil {
			log.begin("wal.append", rank, round)
			err := jlog.Append(buf)
			log.end()
			if err != nil {
				return nil, err
			}
		}

		log.begin("pool.consume", rank, round)
		if tier != nil {
			tier.ConsumeSized(rank, dec, len(buf))
		} else {
			pool.ConsumeSized(rank, dec, len(buf))
		}
		log.end()

		if graph != nil {
			// The plain monitor keeps its own merged graph beside the
			// pool's; the sharded monitor keeps none.
			log.begin("stg.addbatch", rank, round)
			graph.AddBatch(dec)
			log.end()
		}

		for i := range frags {
			if frags[i].Kind == trace.Comp {
				edges[frags[i].Edge()] = true
			} else {
				vertices[frags[i].State] = true
			}
		}
		if high[rank] == 0 {
			seen++
		}
		if hi > high[rank] {
			high[rank] = hi
		}
		if seen == sp.ranks {
			wm := high[0]
			for _, h := range high[1:] {
				if h < wm {
					wm = h
				}
			}
			for ; wm >= nextEnd; nextEnd += int64(sp.stride()) {
				start := nextEnd - int64(sp.period)
				if tier == nil {
					log.begin("detect.runwindow", rank, round)
					last = analyzer.RunWindow(graph, sp.ranks, dopt, start, nextEnd)
					log.end()
					res.windowMS = append(res.windowMS, spanMS(log.spans[len(log.spans)-1]))
					continue
				}
				parts := make([]*detect.Result, sp.shards)
				planes := 0.0
				for i := range parts {
					log.begin("detect.runwindow", rank, round)
					parts[i] = tier.Plane(i).RunWindow(start, nextEnd)
					log.end()
					planes += spanMS(log.spans[len(log.spans)-1])
				}
				res.windowMS = append(res.windowMS, planes)
				log.begin("detect.spatial.merge", rank, round)
				last, _ = merger.Merge(parts, sp.ranks, tier.Owner, dopt)
				log.end()
				res.mergeMS = append(res.mergeMS, spanMS(log.spans[len(log.spans)-1]))
			}
		}
		log.end() // ladder.batch
	}

	if jlog != nil {
		if err := jlog.Sync(); err != nil {
			return nil, err
		}
		st := jlog.Stats()
		res.walBytes, res.walSegments = st.Bytes, st.Segments
		log.begin("wal.replay", 0, 0)
		err := jlog.Replay(func([]byte) error { return nil })
		log.end()
		if err != nil {
			return nil, err
		}
		res.walReplayNS = log.spans[len(log.spans)-1].End - log.spans[len(log.spans)-1].Start
	}
	if last != nil {
		log.begin("heatmap.render", 0, 0)
		for _, class := range []detect.Class{detect.Computation, detect.Communication, detect.IOClass} {
			_ = heatmap.Render(last.Maps[class], heatmap.DefaultOptions())
		}
		log.end()
	}

	res.vertices, res.edges = len(vertices), len(edges)
	// Stage shares come from the existing vapro_detect_stage_* series.
	var total int64
	stage := map[string]int64{}
	for _, reg := range regs {
		snap := reg.Snapshot()
		if m := snap.Get("vapro_detect_window_ns"); m != nil && m.Hist != nil {
			total += m.Hist.Sum
		}
		for _, name := range []string{"prep", "cluster", "normalize", "merge", "map"} {
			if m := snap.Get("vapro_detect_stage_" + name + "_ns"); m != nil && m.Hist != nil {
				stage[name] += m.Hist.Sum
			}
		}
	}
	for name, ns := range stage {
		if total > 0 {
			res.stageShare[name] = float64(ns) / float64(total)
		}
	}
	res.clusterNS = stage["cluster"]
	res.self = selfTimes(log.spans)
	res.spans = log.spans
	return res, nil
}

func spanMS(sp span) float64 { return float64(sp.End-sp.Start) / 1e6 }
