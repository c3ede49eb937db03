package collector

import (
	"net"
	"strings"
	"testing"
	"time"

	"vapro/internal/obs"
	"vapro/internal/sim"
	"vapro/internal/trace"
)

// TestShardOwnerStable pins the assignment as a pure function of
// (rank, shards): every client and server must compute the same owner
// from the shard count alone, forever.
func TestShardOwnerStable(t *testing.T) {
	for r := 0; r < 100; r++ {
		if ShardOwner(r, 1) != 0 {
			t.Fatalf("ShardOwner(%d, 1) != 0", r)
		}
	}
	// splitmix64 is fixed; pin a few values so an accidental hash swap
	// cannot slip by.
	pins := map[[2]int]int{
		{0, 8}: int(splitmix64(0) % 8),
		{1, 8}: int(splitmix64(1) % 8),
		{7, 4}: int(splitmix64(7) % 4),
	}
	for k, want := range pins {
		if got := ShardOwner(k[0], k[1]); got != want {
			t.Fatalf("ShardOwner(%d,%d) = %d, want %d", k[0], k[1], got, want)
		}
	}
	// The map's Owner agrees with the free function.
	m := ShardMap{Addrs: make([]string, 8)}
	for r := 0; r < 256; r++ {
		if m.Owner(r) != ShardOwner(r, 8) {
			t.Fatalf("ShardMap.Owner disagrees at rank %d", r)
		}
	}
	// 2048 ranks over 8 shards: the stable hash must not starve any
	// shard (balance within a loose bound is all we need).
	counts := make([]int, 8)
	for r := 0; r < 2048; r++ {
		counts[ShardOwner(r, 8)]++
	}
	for i, c := range counts {
		if c < 128 || c > 384 {
			t.Fatalf("shard %d owns %d of 2048 ranks (want 128..384)", i, c)
		}
	}
}

func shardTestOptions() Options {
	opt := DefaultOptions()
	opt.Period = 20 * sim.Millisecond
	opt.Overlap = 10 * sim.Millisecond
	opt.Detect.Window = 5 * sim.Millisecond
	return opt
}

// TestShardedPoolRouting: in-process consumption lands every rank's
// batches in its owning plane, and the tier-level aggregates see all
// of it.
func TestShardedPoolRouting(t *testing.T) {
	const ranks, shards = 16, 4
	tier := NewShardedPool(ranks, shards, shardTestOptions())
	defer tier.Close()
	perRank := 10
	for r := 0; r < ranks; r++ {
		for i := 0; i < perRank; i++ {
			tier.Consume(r, []trace.Fragment{frag(r, int64(i)*1_000_000, 500_000)})
		}
	}
	if got := tier.FragmentCount(); got != ranks*perRank {
		t.Fatalf("tier fragments = %d, want %d", got, ranks*perRank)
	}
	for s := 0; s < shards; s++ {
		want := 0
		for r := 0; r < ranks; r++ {
			if tier.Owner(r) == s {
				want += perRank
			}
		}
		if got := tier.Plane(s).fragments(); got != want {
			t.Fatalf("shard %d fragments = %d, want %d", s, got, want)
		}
	}
	if tier.Metrics().ShardMisroutes.Load() != 0 {
		t.Fatal("in-process routing counted misroutes")
	}
	// The direct-sink accessors address one plane; over several, the
	// sequence spaces and journals are per plane.
	if tier.SeqState() != nil || tier.Journal() != nil {
		t.Fatal("a multi-plane pool exposed a direct-sink tracker or journal")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AttachJournal on a multi-plane pool did not refuse")
		}
	}()
	tier.AttachJournal(nil)
}

// TestShardHelloRedirect: a client bootstrapped at the wrong shard's
// address reads the hello, redials its owner, and its batches land in
// the owning plane — no misroutes, one redirect.
func TestShardHelloRedirect(t *testing.T) {
	const ranks, shards = 8, 2
	tier := NewShardedPool(ranks, shards, shardTestOptions())
	defer tier.Close()

	var lns [shards]net.Listener
	var srvs [shards]*WireServer
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
		srvs[i] = ServeWire(ln, tier.WireSink(i))
	}
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()
	if err := tier.Rebalance(addrs); err != nil {
		t.Fatal(err)
	}

	rank := 0
	wrong := addrs[1-tier.Owner(rank)]
	c := NewResilientClient(ShardDialer(rank, []string{wrong}, tier.Metrics()), DefaultResilientOptions())
	c.SetMetrics(tier.Metrics())
	const batches = 20
	for i := 0; i < batches; i++ {
		c.Consume(rank, []trace.Fragment{frag(rank, int64(i)*1_000_000, 500_000)})
	}
	if !c.Drain(5 * time.Second) {
		t.Fatal("client did not drain")
	}
	c.Close()
	if !waitUntil(5*time.Second, func() bool {
		return tier.Plane(tier.Owner(rank)).fragments() == batches
	}) {
		t.Fatalf("owner plane has %d fragments, want %d",
			tier.Plane(tier.Owner(rank)).fragments(), batches)
	}
	if tier.Metrics().ShardRedirects.Load() == 0 {
		t.Fatal("no redirect was counted despite a wrong bootstrap")
	}
	if tier.Metrics().ShardMisroutes.Load() != 0 {
		t.Fatalf("misroutes = %d, want 0", tier.Metrics().ShardMisroutes.Load())
	}
	// The shard map travelled by hello: the client's next dial should
	// go owner-first. Rebalance bumps the version.
	if v := tier.ShardMap().Version; v != 1 {
		t.Fatalf("map version = %d, want 1", v)
	}
}

// TestShardTierMetrics: the tier registers the shard surface — global
// counters plus one row of Funcs per shard — and counts the region
// growth it keeps: the tier's merge grows regions, no plane does.
func TestShardTierMetrics(t *testing.T) {
	const ranks, shards = 32, 4
	tier := NewShardedPool(ranks, shards, shardTestOptions())
	defer tier.Close()
	for r := 0; r < ranks; r++ {
		for i := 0; i < 30; i++ {
			el := int64(900_000)
			if r == 5 && i >= 10 && i < 20 {
				el *= 2 // a slow stretch: something to grow regions over
			}
			tier.Consume(r, []trace.Fragment{frag(r, int64(i)*1_000_000, el)})
		}
	}
	if res := tier.RunWindow(0, 30_000_000); res == nil {
		t.Fatal("tier window returned nil")
	}
	if res := tier.RunWindow(10_000_000, 40_000_000); len(res.Regions) == 0 {
		t.Fatal("no region in the overlapped window")
	}
	cells := func(snap obs.Snapshot) float64 {
		n := 0.0
		for _, name := range []string{"vapro_detect_region_cells_carried_total", "vapro_detect_region_cells_regrown_total"} {
			if m := snap.Get(name); m != nil {
				n += m.Value
			}
		}
		return n
	}
	for i := 0; i < shards; i++ {
		if n := cells(tier.Plane(i).Metrics().Registry.Snapshot()); n != 0 {
			t.Fatalf("plane %d grew regions over %v cells; only the tier's merge grows them", i, n)
		}
	}
	snap := tier.Metrics().Registry.Snapshot()
	if cells(snap) == 0 {
		t.Fatal("the tier's merge counted no carried or regrown region cells")
	}
	if m := snap.Get("vapro_shards"); m == nil || m.Value != float64(shards) {
		t.Fatalf("vapro_shards = %+v", m)
	}
	if m := snap.Get("vapro_ranks"); m == nil || m.Value != float64(ranks) {
		t.Fatalf("vapro_ranks = %+v", m)
	}
	if m := snap.Get("vapro_shard_strips_merged_total"); m == nil || m.Value == 0 {
		t.Fatalf("vapro_shard_strips_merged_total = %+v", m)
	}
	residentSum := 0.0
	for i := 0; i < shards; i++ {
		name := "vapro_shard" + string(rune('0'+i)) + "_resident_ranks"
		m := snap.Get(name)
		if m == nil {
			t.Fatalf("missing %s", name)
		}
		residentSum += m.Value
		for _, suffix := range []string{"_intake_staged", "_seq_gaps"} {
			if snap.Get("vapro_shard"+string(rune('0'+i))+suffix) == nil {
				t.Fatalf("missing per-shard metric vapro_shard%d%s", i, suffix)
			}
		}
	}
	if residentSum != float64(ranks) {
		t.Fatalf("resident ranks sum to %v, want %d", residentSum, ranks)
	}
	// Prometheus text exposition carries the rows too (the status
	// panel scrapes this form).
	var sb strings.Builder
	for _, ms := range snap.Metrics {
		sb.WriteString(ms.Name)
		sb.WriteByte('\n')
	}
	for _, name := range []string{"vapro_shard_regions_stitched_total", "vapro_shardmap_rebalances_total"} {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("snapshot missing %s", name)
		}
	}
}

// TestShardedMonitorDetectsOnline mirrors TestMonitorDetectsOnline over
// a 2-shard tier: the merged analysis must produce the same kind of
// events (rank 2's slowdown) regardless of which shard owns rank 2, and
// diagnose them.
func TestShardedMonitorDetectsOnline(t *testing.T) {
	opt := shardTestOptions()
	tier := NewShardedPool(4, 2, opt)
	defer tier.Close()
	mopt := DefaultMonitorOptions(4)
	mopt.MinRegionLoss = sim.Millisecond
	m := NewMonitor(tier, mopt)
	for rank := 0; rank < 4; rank++ {
		tm := int64(0)
		var batch []trace.Fragment
		for tm < 100_000_000 {
			el := int64(1_000_000)
			if rank == 2 && tm >= 40_000_000 && tm < 70_000_000 {
				el = 2_000_000
			}
			batch = append(batch, monFrag(rank, tm, el, el > 1_000_000))
			tm += el
			if len(batch) == 8 {
				m.Consume(rank, batch)
				batch = nil
			}
		}
		m.Consume(rank, batch)
	}
	m.Flush()
	events := m.Drain()
	if len(events) == 0 {
		t.Fatal("sharded monitor produced no events")
	}
	ev := events[0]
	if ev.WindowEnd <= sim.Time(40*sim.Millisecond) || ev.WindowStart >= sim.Time(70*sim.Millisecond) {
		t.Fatalf("first event window [%v, %v] misses the slowdown", ev.WindowStart, ev.WindowEnd)
	}
	found := false
	for _, reg := range ev.Regions {
		if reg.RankMin <= 2 && reg.RankMax >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("event regions miss rank 2: %+v", ev.Regions)
	}
	if m.Stage() < 2 {
		t.Fatalf("stage = %d, want escalation past 1", m.Stage())
	}
	// The tier diagnoses its events: each region sample's clusters come
	// from the plane that owns the sample's rank.
	if rep := m.DiagnoseEvent(&ev, diagnoseDefaults()); rep == nil || rep.OLS == nil {
		t.Fatalf("first event's diagnosis has no OLS part: %+v", rep)
	}
}
