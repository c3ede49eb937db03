package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Handler serves the registry over HTTP in two formats: Prometheus text
// exposition (the default, scrapable) and JSON (`?format=json` or an
// Accept header preferring application/json) — the surface `vapro
// status` renders.
func (r *Registry) Handler() http.Handler {
	return SnapshotHandler(r.Snapshot)
}

// SnapshotHandler serves an arbitrary snapshot source with the same
// content negotiation as Registry.Handler — the sharded tier and fleet
// scraper plug their merged views in here.
func SnapshotHandler(fn func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := fn()
		if wantJSON(req) {
			w.Header().Set("Content-Type", "application/json")
			_ = WriteSnapshotJSON(w, &snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteSnapshotPrometheus(w, &snap)
	})
}

// TraceHandler serves a trace snapshot source as JSON (the `/trace`
// endpoint `vapro status -trace` reads).
func TraceHandler(fn func() TraceSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := fn()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(&snap)
	})
}

func wantJSON(req *http.Request) bool {
	if req.URL.Query().Get("format") == "json" {
		return true
	}
	if req.URL.Query().Get("format") == "prom" {
		return false
	}
	return strings.Contains(req.Header.Get("Accept"), "application/json")
}

// WriteSnapshotJSON writes one snapshot as indented JSON.
func WriteSnapshotJSON(w io.Writer, snap *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// WriteSnapshotPrometheus writes one snapshot in the Prometheus text
// exposition format. Counters and gauges carry a `layer` label;
// histograms expand into _bucket/_sum/_count series; Func metrics are
// exposed as gauges (their semantics live in the help string).
func WriteSnapshotPrometheus(w io.Writer, snap *Snapshot) {
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		promType := m.Kind
		if promType == "func" {
			promType = "gauge"
		}
		if m.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, promType)
		if m.Hist == nil {
			fmt.Fprintf(w, "%s{layer=%q} %v\n", m.Name, m.Layer, m.Value)
			continue
		}
		var cum uint64
		for bi, c := range m.Hist.Counts {
			cum += c
			if bi < len(m.Hist.Bounds) {
				fmt.Fprintf(w, "%s_bucket{layer=%q,le=\"%d\"} %d\n", m.Name, m.Layer, m.Hist.Bounds[bi], cum)
			} else {
				fmt.Fprintf(w, "%s_bucket{layer=%q,le=\"+Inf\"} %d\n", m.Name, m.Layer, cum)
			}
		}
		fmt.Fprintf(w, "%s_sum{layer=%q} %d\n", m.Name, m.Layer, m.Hist.Sum)
		fmt.Fprintf(w, "%s_count{layer=%q} %d\n", m.Name, m.Layer, m.Hist.Total)
	}
}
