package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vapro/internal/collector"
	"vapro/internal/obs"
)

// TestRenderTraceJourneys pins the -trace rendering against a
// deterministic journey: per-hop deltas, the dwell label on the
// enqueue→write leg, and unreached hops shown as "-".
func TestRenderTraceJourneys(t *testing.T) {
	ms := int64(time.Millisecond)
	ts := obs.TraceSnapshot{
		Interval: 64, Total: 640, Sampled: 10, HopNames: obs.HopNames[:],
		Journeys: []obs.Journey{
			{
				Key: obs.TraceKey{ClientID: 7, Seq: 128}, Rank: 3, FlushNS: 1000 * ms,
				// flush, enqueue at flush; write 150ms later (spill);
				// deliver +1ms, stage +1ms, drain unreached, analyzed unreached.
				Hops: [obs.NumHops]int64{1000 * ms, 1000 * ms, 1150 * ms, 1151 * ms, 1152 * ms, 0, 0},
			},
		},
	}
	out := renderTrace(&ts)
	for _, want := range []string{
		"interval 1/64, 640 stamped, 10 sampled, 1 held",
		"client 7 seq 128 rank 3",
		"span 152.0ms",
		"write +150.0ms (spill/redial dwell)",
		"deliver +1.0ms",
		"drain -",
		"analyzed -",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace render missing %q:\n%s", want, out)
		}
	}
	// An empty ring renders a hint, not an empty string.
	empty := renderTrace(&obs.TraceSnapshot{Interval: 64, HopNames: obs.HopNames[:]})
	if !strings.Contains(empty, "no sampled journeys") {
		t.Fatalf("empty trace render: %q", empty)
	}
}

// TestRenderFleetTable pins the -fleet rendering: every shard gets a
// row with its first reason as the detail, and fleet reasons are
// listed with shard attribution.
func TestRenderFleetTable(t *testing.T) {
	st := &collector.FleetStatus{
		State:   obs.HealthDegraded,
		Reasons: []string{"shard 1: critical: seq-gap-rate vapro_wire_seq_gaps_total=10"},
		Ranks:   8, Servers: 2, WireFrames: 40, SeqGaps: 10,
		Shards: []collector.ShardStatus{
			{Shard: 0, Target: "127.0.0.1:9001", State: obs.HealthOK, ResidentRanks: 4},
			{Shard: 1, Target: "127.0.0.1:9002", State: obs.HealthCritical, ResidentRanks: 4, SeqGaps: 10,
				Reasons: []string{"critical: seq-gap-rate vapro_wire_seq_gaps_total=10"}},
		},
	}
	out := renderFleet(st)
	for _, want := range []string{
		"vapro fleet — degraded   ranks 8   servers 2   frames 40   seq gaps 10",
		"! shard 1: critical: seq-gap-rate",
		"critical",
		"127.0.0.1:9002",
		"  critical: seq-gap-rate vapro_wire_seq_gaps_total=10",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "scrape") {
		t.Fatalf("fleet render still has a scrape line:\n%s", out)
	}
	if strings.Count(out, "127.0.0.1:900") != 2 {
		t.Fatalf("expected both shard rows:\n%s", out)
	}
}

// TestFetchFleetStatusFallback: `vapro status -json|-fleet` reads /fleet
// from the pool's one HTTP surface, one row per plane whatever the
// plane count; a body naming an unknown health state is an error that
// names the value.
func TestFetchFleetStatusFallback(t *testing.T) {
	client := &http.Client{Timeout: 2 * time.Second}
	for _, shards := range []int{1, 4} {
		pool := collector.NewShardedPool(8, shards, collector.DefaultOptions())
		srv := httptest.NewServer(pool.Handler())
		st, err := fetchFleetStatus(client, strings.TrimPrefix(srv.URL, "http://"))
		srv.Close()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if st.State != obs.HealthOK || st.Ranks != 8 || st.Servers != float64(shards) || len(st.Shards) != shards {
			t.Fatalf("shards=%d: status %+v", shards, st)
		}
		var resident float64
		for _, row := range st.Shards {
			resident += row.ResidentRanks
		}
		if resident != 8 {
			t.Fatalf("shards=%d: resident ranks across rows %v", shards, resident)
		}
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"state": "unreachable", "shards": []}`))
	}))
	defer bad.Close()
	_, err := fetchFleetStatus(client, strings.TrimPrefix(bad.URL, "http://"))
	if err == nil || !strings.Contains(err.Error(), `"unreachable"`) || !strings.Contains(err.Error(), "/fleet") {
		t.Fatalf("bad state body: err %v, want one naming /fleet and the value", err)
	}
}

// TestStatusRenderShardNoData pins the satellite fix: a tier snapshot
// that promises more shards than it has rows must render explicit
// "(no data)" rows instead of silently truncating the table.
func TestStatusRenderShardNoData(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("vapro_shards", "shard", "").Set(3)
	reg.Func("vapro_shard0_resident_ranks", "shard", "", func() float64 { return 4 })
	// shard 1 and 2 rows are missing from the scrape.
	snap := reg.Snapshot()
	out := renderStatus(&snap)
	if !strings.Contains(out, "shard 0: resident 4") {
		t.Fatalf("live shard row missing:\n%s", out)
	}
	for _, want := range []string{"shard 1: (no data)", "shard 2: (no data)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing explicit no-data row %q:\n%s", want, out)
		}
	}
}
