package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func testRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("vapro_wire_frames_total", "wire", "frames accepted").Add(3)
	reg.Gauge("vapro_intake_staged", "intake", "batches staged").Set(2)
	h := reg.Histogram("vapro_detect_window_ns", "detect", "window latency", []int64{10, 20})
	h.Observe(5)
	h.Observe(15)
	h.Observe(999)
	return reg
}

func TestHandlerPrometheus(t *testing.T) {
	rr := httptest.NewRecorder()
	SnapshotHandler(testRegistry().Snapshot).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type: %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE vapro_wire_frames_total counter",
		`vapro_wire_frames_total{layer="wire"} 3`,
		`vapro_intake_staged{layer="intake"} 2`,
		"# TYPE vapro_detect_window_ns histogram",
		`vapro_detect_window_ns_bucket{layer="detect",le="10"} 1`,
		`vapro_detect_window_ns_bucket{layer="detect",le="20"} 2`,
		`vapro_detect_window_ns_bucket{layer="detect",le="+Inf"} 3`,
		`vapro_detect_window_ns_sum{layer="detect"} 1019`,
		`vapro_detect_window_ns_count{layer="detect"} 3`,
		"# TYPE vapro_uptime_seconds gauge", // func rendered as gauge
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus body missing %q:\n%s", want, body)
		}
	}
}

func TestHandlerJSON(t *testing.T) {
	reg := testRegistry()
	// Both ?format=json and an Accept header select JSON.
	for _, r := range []string{"/metrics?format=json", "/metrics"} {
		req := httptest.NewRequest("GET", r, nil)
		if !strings.Contains(r, "format=") {
			req.Header.Set("Accept", "application/json")
		}
		rr := httptest.NewRecorder()
		SnapshotHandler(reg.Snapshot).ServeHTTP(rr, req)
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s content type: %q", r, ct)
		}
		var snap Snapshot
		if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
			t.Fatalf("%s: bad JSON: %v", r, err)
		}
		if m := snap.Get("vapro_wire_frames_total"); m == nil || m.Value != 3 {
			t.Fatalf("%s: frames metric: %+v", r, m)
		}
		m := snap.Get("vapro_detect_window_ns")
		if m == nil || m.Hist == nil || m.Hist.Total != 3 || m.Hist.Sum != 1019 {
			t.Fatalf("%s: histogram snapshot: %+v", r, m)
		}
	}
	// ?format=prom forces text even with a JSON Accept header.
	req := httptest.NewRequest("GET", "/metrics?format=prom", nil)
	req.Header.Set("Accept", "application/json")
	rr := httptest.NewRecorder()
	SnapshotHandler(reg.Snapshot).ServeHTTP(rr, req)
	if !strings.HasPrefix(rr.Header().Get("Content-Type"), "text/plain") {
		t.Fatal("format=prom did not force text output")
	}
}
