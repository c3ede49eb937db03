package collector

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vapro/internal/obs"
	"vapro/internal/trace"
)

// readFleet reads /fleet through the pool's one HTTP surface.
func readFleet(t *testing.T, p *Pool) FleetStatus {
	t.Helper()
	rr := httptest.NewRecorder()
	p.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/fleet", nil))
	if rr.Code != 200 {
		t.Fatalf("/fleet: status %d: %s", rr.Code, rr.Body.String())
	}
	var st FleetStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("/fleet JSON: %v", err)
	}
	return st
}

// hasReason reports whether some reason starts with prefix.
func hasReason(reasons []string, prefix string) bool {
	for _, r := range reasons {
		if strings.HasPrefix(r, prefix) {
			return true
		}
	}
	return false
}

// TestFleetMergedCountersEqualShardSum is the live consistency check:
// real wire traffic into a 4-plane pool, and the views of that one
// process must agree — /fleet's frame count, the merged registry's and
// the sum over the planes' own counters; each row's resident ranks are
// its plane's owned ranks, and its target the published address.
func TestFleetMergedCountersEqualShardSum(t *testing.T) {
	const ranks, shards = 8, 4
	tier := NewShardedPool(ranks, shards, shardTestOptions())
	defer tier.Close()

	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		srv := ServeWire(ln, tier.WireSink(i))
		defer srv.Close()
	}
	if err := tier.Rebalance(addrs); err != nil {
		t.Fatal(err)
	}

	for r := 0; r < ranks; r++ {
		c := NewResilientClient(
			ShardDialer(r, append([]string(nil), addrs...), tier.Metrics()),
			ResilientOptions{MaxSpill: 16})
		defer c.Close()
		for n := 0; n < 5; n++ {
			c.Consume(r, []trace.Fragment{frag(r, int64(n)*1000, 500)})
		}
	}
	// Delivery is asynchronous: wait until every batch landed in a
	// plane before reading.
	deadline := time.Now().Add(5 * time.Second)
	for tier.FragmentCount() < ranks*5 {
		if time.Now().After(deadline) {
			t.Fatalf("delivery stalled: %d/%d fragments", tier.FragmentCount(), ranks*5)
		}
		time.Sleep(time.Millisecond)
	}

	st := readFleet(t, tier)
	if st.State != obs.HealthOK {
		t.Fatalf("fleet state %v, reasons %v", st.State, st.Reasons)
	}
	if st.WireFrames != ranks*5 || st.Ranks != ranks || st.Servers != shards {
		t.Fatalf("fleet totals: frames %v ranks %v servers %v", st.WireFrames, st.Ranks, st.Servers)
	}
	merged := tier.MergedSnapshot()
	var planeSum float64
	for i := 0; i < shards; i++ {
		planeSum += float64(tier.Plane(i).Metrics().WireFrames.Load())
	}
	if m := merged.Get("vapro_wire_frames_total"); m == nil || m.Value != st.WireFrames || planeSum != st.WireFrames {
		t.Fatalf("wire frames: /fleet %v, merged %+v, plane sum %v", st.WireFrames, m, planeSum)
	}

	if len(st.Shards) != shards {
		t.Fatalf("shard rows: %d", len(st.Shards))
	}
	owned := make([]float64, shards)
	for r := 0; r < ranks; r++ {
		owned[tier.Owner(r)]++
	}
	var resident float64
	for i, row := range st.Shards {
		if row.Shard != i || row.ResidentRanks != owned[i] || row.Target != addrs[i] {
			t.Fatalf("row %d: %+v, want resident %v target %s", i, row, owned[i], addrs[i])
		}
		resident += row.ResidentRanks
	}
	if resident != ranks {
		t.Fatalf("resident ranks across rows: %v, want %d", resident, ranks)
	}
	// The health gauge rides the merged registry beside everything else.
	if m := merged.Get("vapro_fleet_health"); m == nil || m.Value != float64(obs.HealthOK) {
		t.Fatalf("vapro_fleet_health: %+v", m)
	}
}

// TestFleetHealthRuleFires checks a rate rule over the pool's own
// series: sequence gaps advancing on one plane between two Health
// calls turn that row critical and degrade the fleet with the plane
// named in the reason; once the gaps stop the rate decays over the
// ring's window and both recover.
func TestFleetHealthRuleFires(t *testing.T) {
	tier := NewShardedPool(8, 4, shardTestOptions())
	defer tier.Close()
	sec := int64(time.Second)
	if st := tier.Health(1 * sec); st.State != obs.HealthOK {
		t.Fatalf("quiet pool: %v (%v)", st.State, st.Reasons)
	}
	tier.Plane(2).Metrics().WireSeqGaps.Add(10) // 10 gaps/s: critical >= 5
	st := tier.Health(2 * sec)
	if st.Shards[2].State != obs.HealthCritical || !strings.Contains(st.Shards[2].Reasons[0], "seq-gap-rate") {
		t.Fatalf("gapping plane row: %+v", st.Shards[2])
	}
	if st.State != obs.HealthDegraded || !hasReason(st.Reasons, "shard 2: critical: seq-gap-rate") {
		t.Fatalf("one critical plane of four: fleet %v, reasons %v", st.State, st.Reasons)
	}
	if tier.health.Load() != int64(obs.HealthDegraded) {
		t.Fatalf("vapro_fleet_health %d, want degraded", tier.health.Load())
	}
	// A minute with no further gaps: 10 over 61 s is under the 0.5/s
	// degraded threshold.
	if st := tier.Health(62 * sec); st.State != obs.HealthOK || st.Shards[2].State != obs.HealthOK {
		t.Fatalf("gaps stopped: fleet %v, row %+v", st.State, st.Shards[2])
	}
	if tier.health.Load() != int64(obs.HealthOK) {
		t.Fatal("vapro_fleet_health did not recover")
	}
}

// TestFleetHealthConcurrent reads the fleet view from several
// goroutines (the /fleet route and the serve ticker share one pool)
// while batches stage and drain, so the race detector sees Health
// beside ingestion and analysis.
func TestFleetHealthConcurrent(t *testing.T) {
	const ranks = 8
	tier := NewShardedPool(ranks, 4, shardTestOptions())
	defer tier.Close()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if st := tier.Health(time.Now().UnixNano()); len(st.Shards) != 4 {
					t.Errorf("rows: %d", len(st.Shards))
					return
				}
			}
		}()
	}
	for n := 0; n < 50; n++ {
		for r := 0; r < ranks; r++ {
			tier.Consume(r, []trace.Fragment{frag(r, int64(n)*1000, 500)})
		}
		if n%10 == 9 {
			tier.RunWindow(0, int64(n+1)*1000)
		}
	}
	wg.Wait()
}

// TestFleetKillDegradeRecover drives the fold: one critical plane
// degrades the fleet, more than half critical makes it critical, and
// clearing the cause returns every row and the fleet to ok. The value
// rule needs no history, so each Health call judges the planes as they
// stand.
func TestFleetKillDegradeRecover(t *testing.T) {
	const shards = 4
	tier := NewShardedPool(8, shards, shardTestOptions())
	defer tier.Close()
	spill := func(i int, depth int64) { tier.Plane(i).Metrics().NetSpillDepth.Set(depth) }
	ns := int64(0)
	health := func() FleetStatus { ns += int64(time.Second); return tier.Health(ns) }

	if st := health(); st.State != obs.HealthOK {
		t.Fatalf("healthy pool: %v (%v)", st.State, st.Reasons)
	}
	spill(1, 600) // critical >= 512
	st := health()
	if st.State != obs.HealthDegraded || st.Shards[1].State != obs.HealthCritical ||
		!hasReason(st.Reasons, "shard 1: critical: spill-depth") {
		t.Fatalf("one critical plane: fleet %v, reasons %v, row %+v", st.State, st.Reasons, st.Shards[1])
	}
	// Exactly half critical is still degraded; more than half is critical.
	spill(3, 600)
	if st := health(); st.State != obs.HealthDegraded {
		t.Fatalf("two of four critical: fleet %v, want degraded", st.State)
	}
	spill(0, 600)
	if st := health(); st.State != obs.HealthCritical {
		t.Fatalf("three of four critical: fleet %v, want critical", st.State)
	}
	for i := 0; i < shards; i++ {
		spill(i, 0)
	}
	st = health()
	if st.State != obs.HealthOK || len(st.Reasons) != 0 {
		t.Fatalf("recovered pool: %v (%v)", st.State, st.Reasons)
	}
	for _, row := range st.Shards {
		if row.State != obs.HealthOK {
			t.Fatalf("recovered row: %+v", row)
		}
	}
}

// TestFleetSetTargets checks Rebalance against the fleet view: targets
// are empty until a map is published, follow every new map, and a
// plane's series history survives the address change.
func TestFleetSetTargets(t *testing.T) {
	tier := NewShardedPool(8, 2, shardTestOptions())
	defer tier.Close()
	sec := int64(time.Second)
	st := tier.Health(1 * sec)
	if st.Shards[0].Target != "" || st.Shards[1].Target != "" {
		t.Fatalf("targets before Rebalance: %+v", st.Shards)
	}
	if err := tier.Rebalance([]string{"a:1", "b:1"}); err != nil {
		t.Fatal(err)
	}
	tier.Health(2 * sec)
	if err := tier.Rebalance([]string{"a:1", "c:1"}); err != nil {
		t.Fatal(err)
	}
	st = tier.Health(3 * sec)
	if st.Shards[0].Target != "a:1" || st.Shards[1].Target != "c:1" {
		t.Fatalf("targets after Rebalance: %+v", st.Shards)
	}
	for i := range st.Shards {
		if n := tier.series[i].Get("vapro_wire_frames_total").Len(); n != 3 {
			t.Fatalf("plane %d history: %d points, want 3", i, n)
		}
	}
}

// TestFleetStatusFromSnapshot pins the one-plane shape of the schema:
// one row owning every rank, and the health gauge on the plane's own
// registry (which is the pool's).
func TestFleetStatusFromSnapshot(t *testing.T) {
	p := NewPool(4, DefaultOptions())
	defer p.Close()
	for r := 0; r < 4; r++ {
		p.Consume(r, []trace.Fragment{frag(r, 0, 100)})
	}
	st := readFleet(t, p)
	if st.State != obs.HealthOK || st.Ranks != 4 || st.Servers != 1 {
		t.Fatalf("one-plane status: %+v", st)
	}
	if len(st.Shards) != 1 || st.Shards[0].Shard != 0 || st.Shards[0].ResidentRanks != 4 {
		t.Fatalf("one-plane rows: %+v", st.Shards)
	}
	snap := p.Plane(0).Metrics().Registry.Snapshot()
	if snap.Get("vapro_fleet_health") == nil {
		t.Fatal("one-plane registry lacks vapro_fleet_health")
	}
}
