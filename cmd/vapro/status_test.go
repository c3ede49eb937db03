package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"vapro/internal/collector"
	"vapro/internal/obs"
	"vapro/internal/sim"
	"vapro/internal/trace"
)

// renderStatus must produce the live panel from a real pool's snapshot,
// fetched over the same HTTP surface `vapro status` uses.
func TestStatusRenderFromLivePool(t *testing.T) {
	opt := collector.DefaultOptions()
	opt.Period = 10 * sim.Millisecond
	opt.Overlap = 5 * sim.Millisecond
	opt.Detect.Window = sim.Millisecond
	pool := collector.NewPool(2, opt)
	for rank := 0; rank < 2; rank++ {
		for i := 0; i < 30; i++ {
			pool.Consume(rank, []trace.Fragment{{
				Rank: rank, Kind: trace.Comp, From: 1, State: 2,
				Start: int64(i) * 1_000_000, Elapsed: 900_000,
				Counters: trace.CountersView{TotIns: 1000, Cycles: 500},
			}})
		}
	}
	if len(pool.WindowResults()) == 0 {
		t.Fatal("no windows analyzed")
	}

	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: pool.Handler()}
	go srv.Serve(mln)
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + mln.Addr().String() + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	out := renderStatus(&snap)
	for _, want := range []string{
		"vapro collector",
		"intake    staged 0",
		"batches 60",
		"fragments 60",
		"resident  fragments 60   log ",
		"B/fragment   1 chunk(s), 0 live lane(s)",
		"seq gaps 0 (lost batches)   dups 0\n",
		"detect    windows",
		"latency p50",
		"· map p50 ",
		"cluster",
		"steady    store appends",
		"ols rank-1",
		"client    interceptions",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("status panel missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "view cursor") {
		t.Fatalf("status panel still renders the removed view counters:\n%s", out)
	}
}

// A sharded tier's snapshot must render the shard summary row plus one
// row per shard — and the single-server panel must never grow them.
func TestStatusRenderSharded(t *testing.T) {
	const ranks, shards = 8, 2
	opt := collector.DefaultOptions()
	opt.Period = 10 * sim.Millisecond
	opt.Overlap = 5 * sim.Millisecond
	opt.Detect.Window = sim.Millisecond
	tier := collector.NewShardedPool(ranks, shards, opt)
	defer tier.Close()
	for rank := 0; rank < ranks; rank++ {
		for i := 0; i < 30; i++ {
			tier.Consume(rank, []trace.Fragment{{
				Rank: rank, Kind: trace.Comp, From: 1, State: 2,
				Start: int64(i) * 1_000_000, Elapsed: 900_000,
				Counters: trace.CountersView{TotIns: 1000, Cycles: 500},
			}})
		}
	}
	if res := tier.RunWindow(0, 30_000_000); res == nil {
		t.Fatal("tier window returned nil")
	}

	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: tier.Handler()}
	go srv.Serve(mln)
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + mln.Addr().String() + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	out := renderStatus(&snap)
	for _, want := range []string{
		"shards    2",
		"strips merged",
		"regions stitched",
		"rebalances",
		"shard 0: resident",
		"shard 1: resident",
		"seq gaps",
		"resident  fragments 240   log ",
		"B/fragment   2 chunk(s), 0 live lane(s)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("sharded status panel missing %q:\n%s", want, out)
		}
	}
	// Each shard row carries its own share of the resident log.
	for shard := 0; shard < shards; shard++ {
		row := out[strings.Index(out, fmt.Sprintf("shard %d: resident", shard)):]
		row = row[:strings.Index(row, "\n")]
		if !strings.Contains(row, "   fragments ") || !strings.Contains(row, " B/fragment") || strings.Contains(row, "fragments 0 ") {
			t.Fatalf("shard %d row lacks its resident log: %q", shard, row)
		}
	}
	if strings.Contains(out, "shard 2:") {
		t.Fatalf("panel shows a row for a shard that does not exist:\n%s", out)
	}
}

func TestHumanUnits(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{humanBytes(512), "512 B"},
		{humanBytes(2048), "2.0 KiB"},
		{humanBytes(3 << 20), "3.0 MiB"},
		{humanNS(500), "500ns"},
		{humanNS(1500), "1.5µs"},
		{humanNS(2_500_000), "2.5ms"},
		{humanNS(3_000_000_000), "3.00s"},
		{humanSeconds(30), "30.0s"},
		{humanSeconds(90), "1.5m"},
		{humanSeconds(7200), "2.0h"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Fatalf("got %q, want %q", c.got, c.want)
		}
	}
}
