package obs

import "sort"

// Snapshot merging: the collector's pool serves one registry-shaped
// view over its tier registry and every plane's. Merging is defined per
// metric kind:
//
//   - counters sum (each plane counts disjoint events),
//   - gauges take the max (depth/peak gauges are per-plane high-water
//     marks; a sum would invent load no plane ever saw),
//   - histograms merge bucket-wise — every registry builds its ladders
//     from the same LatencyBounds/CountBounds constructors, so equal
//     bounds add exactly and the quantiles recomputed over the merged
//     buckets mean precisely what a single process's quantiles mean,
//   - Func metrics sum by default (most are sums of live atomics), with
//     a per-name override table for the few whose semantics are
//     max-like (uptime, provisioned ranks, sampling interval).
//
// Metrics present in only some snapshots merge as if absent meant zero
// (max rules ignore absence).

// mergeMax names the Func/gauge-like metrics that merge by max rather
// than sum: values that describe the same global quantity from every
// plane (provisioned ranks, shard count) or a per-registry clock.
var mergeMax = map[string]bool{
	"vapro_uptime_seconds":        true,
	"vapro_ranks":                 true,
	"vapro_shards":                true,
	"vapro_trace_sample_interval": true,
}

// MergeSnapshots folds snaps into one snapshot with the merge rules
// above. Metric order is (layer, name) like Registry.Snapshot; uptime
// is the max across the inputs.
func MergeSnapshots(snaps []Snapshot) Snapshot {
	var out Snapshot
	idx := make(map[string]int)
	for _, s := range snaps {
		if s.UptimeSeconds > out.UptimeSeconds {
			out.UptimeSeconds = s.UptimeSeconds
		}
		for i := range s.Metrics {
			m := &s.Metrics[i]
			j, ok := idx[m.Name]
			if !ok {
				idx[m.Name] = len(out.Metrics)
				cp := *m
				if m.Hist != nil {
					h := cloneHist(m.Hist)
					cp.Hist = &h
				}
				out.Metrics = append(out.Metrics, cp)
				continue
			}
			dst := &out.Metrics[j]
			switch {
			case dst.Hist != nil || m.Hist != nil:
				mergeHistInto(dst, m)
			case dst.Kind == "gauge" || mergeMax[m.Name]:
				if m.Value > dst.Value {
					dst.Value = m.Value
				}
			default: // counters and summing funcs
				dst.Value += m.Value
			}
		}
	}
	sort.Slice(out.Metrics, func(i, j int) bool {
		a, b := &out.Metrics[i], &out.Metrics[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		return a.Name < b.Name
	})
	return out
}

// cloneHist deep-copies a histogram snapshot so merging never mutates
// an input snapshot's buckets.
func cloneHist(h *HistSnapshot) HistSnapshot {
	cp := *h
	cp.Bounds = append([]int64(nil), h.Bounds...)
	cp.Counts = append([]uint64(nil), h.Counts...)
	return cp
}

// mergeHistInto adds src's histogram into dst bucket-wise and rederives
// the quantiles over the merged buckets — exact, not an approximation,
// because both sides bucketed their observations identically. Histogram
// pairs with different bounds (a registry drifted) fall back to keeping
// the larger population rather than fabricating buckets.
func mergeHistInto(dst, src *MetricSnapshot) {
	switch {
	case src.Hist == nil:
		return
	case dst.Hist == nil:
		h := cloneHist(src.Hist)
		dst.Hist = &h
	case boundsEqual(dst.Hist.Bounds, src.Hist.Bounds):
		for i := range dst.Hist.Counts {
			dst.Hist.Counts[i] += src.Hist.Counts[i]
		}
		dst.Hist.Sum += src.Hist.Sum
		dst.Hist.Total += src.Hist.Total
	case src.Hist.Total > dst.Hist.Total:
		h := cloneHist(src.Hist)
		dst.Hist = &h
	}
	h := dst.Hist
	h.P50 = h.Quantile(0.50)
	h.P90 = h.Quantile(0.90)
	h.P99 = h.Quantile(0.99)
	if h.Total > 0 {
		h.Mean = float64(h.Sum) / float64(h.Total)
	}
	dst.Value = float64(h.Total)
}

func boundsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
