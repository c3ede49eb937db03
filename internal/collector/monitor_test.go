package collector

import (
	"sync"
	"testing"

	"vapro/internal/diagnose"
	"vapro/internal/sim"
	"vapro/internal/trace"
)

func diagnoseDefaults() diagnose.Options { return diagnose.DefaultOptions() }

func monFrag(rank int, start, elapsed int64, slow bool) trace.Fragment {
	f := trace.Fragment{
		Rank: rank, Kind: trace.Comp, From: 1, State: 2,
		Start: start, Elapsed: elapsed,
		Counters: trace.CountersView{TotIns: 1_000_000, Cycles: 500_000},
	}
	return f
}

// ioFrag is monFrag's IO twin: a write on one STG vertex, whose
// workload is the invocation arguments.
func ioFrag(rank int, start, elapsed int64, _ bool) trace.Fragment {
	return trace.Fragment{
		Rank: rank, Kind: trace.IO, State: 3,
		Start: start, Elapsed: elapsed,
		Args: trace.Args{Op: trace.OpWrite, Bytes: 4096, FD: 3},
	}
}

// feedMonitor streams a synthetic run: 4 ranks, 1ms fragments over
// 100ms, with rank 2 running 2x slower during [40ms, 70ms).
func feedMonitor(m *Monitor) { feedMonitorWith(m, monFrag) }

// feedMonitorWith is feedMonitor over the fragments frag builds.
func feedMonitorWith(m *Monitor, frag func(rank int, start, elapsed int64, slow bool) trace.Fragment) {
	for rank := 0; rank < 4; rank++ {
		t := int64(0)
		var batch []trace.Fragment
		for t < 100_000_000 {
			el := int64(1_000_000)
			if rank == 2 && t >= 40_000_000 && t < 70_000_000 {
				el = 2_000_000
			}
			batch = append(batch, frag(rank, t, el, el > 1_000_000))
			t += el
			if len(batch) == 8 {
				m.Consume(rank, batch)
				batch = nil
			}
		}
		m.Consume(rank, batch)
	}
	m.Flush()
}

// monOpts returns the monitor tests' windows — 20 ms periods
// overlapping by 10 ms, 5 ms cells, set on the planes, where the
// monitor reads them — and its reporting options.
func monOpts() (Options, MonitorOptions) {
	mopt := DefaultMonitorOptions(4)
	mopt.MinRegionLoss = sim.Millisecond
	return shardTestOptions(), mopt
}

// newTestMonitor builds a monitor over a pool of 4 ranks on shards
// planes.
func newTestMonitor(shards int, copt Options, mopt MonitorOptions) *Monitor {
	return NewMonitor(NewShardedPool(4, shards, copt), mopt)
}

// testShards are the plane counts the monitor tests take as table
// inputs.
var testShards = []int{1, 2, 4}

func TestMonitorDetectsOnline(t *testing.T) {
	copt, mopt := monOpts()
	pool := NewPool(4, copt)
	m := NewMonitor(pool, mopt)
	feedMonitor(m)
	events := m.Drain()
	if len(events) == 0 {
		t.Fatal("online monitor produced no events")
	}
	// The first event's window must overlap the injected slowdown.
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
	// Drain clears.
	if len(m.Drain()) != 0 {
		t.Fatal("Drain did not clear")
	}
}

func TestMonitorProgressiveArming(t *testing.T) {
	copt, mopt := monOpts()
	pool := NewPool(4, copt)
	m := NewMonitor(pool, mopt)
	if m.Stage() != 1 {
		t.Fatal("initial stage")
	}
	before := pool.Armed.Get()
	feedMonitor(m)
	if m.Stage() <= 1 {
		t.Fatal("variance did not escalate the stage")
	}
	after := pool.Armed.Get()
	if after == before {
		t.Fatal("counter groups not widened")
	}
	if !after.Has(sim.GroupBackend) {
		t.Fatal("stage 2 must arm the backend group")
	}
}

func TestMonitorQuietRunNoEvents(t *testing.T) {
	copt, mopt := monOpts()
	pool := NewPool(4, copt)
	m := NewMonitor(pool, mopt)
	for rank := 0; rank < 4; rank++ {
		var batch []trace.Fragment
		for t := int64(0); t < 100_000_000; t += 1_000_000 {
			batch = append(batch, monFrag(rank, t, 1_000_000, false))
		}
		m.Consume(rank, batch)
	}
	m.Flush()
	if events := m.Drain(); len(events) != 0 {
		t.Fatalf("quiet run produced %d events", len(events))
	}
	if m.Stage() != 1 {
		t.Fatal("quiet run escalated stages")
	}
}

func TestMonitorWaitsForAllRanks(t *testing.T) {
	copt, mopt := monOpts()
	pool := NewPool(4, copt)
	m := NewMonitor(pool, mopt)
	// Only 3 of 4 ranks report: no window may close.
	for rank := 0; rank < 3; rank++ {
		var batch []trace.Fragment
		for t := int64(0); t < 100_000_000; t += 1_000_000 {
			el := int64(1_000_000)
			if rank == 2 {
				el = 2_000_000
			}
			batch = append(batch, monFrag(rank, t, el, false))
		}
		m.Consume(rank, batch)
	}
	if events := m.Drain(); len(events) != 0 {
		t.Fatalf("window closed before all ranks reported: %d events", len(events))
	}
}

// Overlapped windows must share clusterings: elements that did not grow
// between two window analyses are served from the pool analyzer's cache.
func TestMonitorReusesClusteringsAcrossWindows(t *testing.T) {
	copt, mopt := monOpts()
	pool := NewPool(4, copt)
	m := NewMonitor(pool, mopt)
	feedMonitor(m)
	hits, misses := m.CacheStats()
	if misses == 0 {
		t.Fatal("monitor never clustered anything")
	}
	if hits == 0 {
		t.Fatal("overlapped windows re-clustered every element (no cache hits)")
	}
}

// TestMonitorDiagnoseEvent diagnoses the first event of a computation
// run (its clusters on an STG edge) and of an IO run (on a vertex): both
// must difference a real abnormal population against a normal one.
func TestMonitorDiagnoseEvent(t *testing.T) {
	feeds := []struct {
		name string
		frag func(rank int, start, elapsed int64, slow bool) trace.Fragment
	}{{"comp", monFrag}, {"io", ioFrag}}
	for _, feed := range feeds {
		for _, shards := range testShards {
			copt, mopt := monOpts()
			m := newTestMonitor(shards, copt, mopt)
			feedMonitorWith(m, feed.frag)
			events := m.Drain()
			if len(events) == 0 {
				t.Fatalf("%s shards=%d: no events", feed.name, shards)
			}
			rep := m.DiagnoseEvent(&events[0], diagnoseDefaults())
			if rep == nil {
				t.Fatalf("%s shards=%d: no diagnosis", feed.name, shards)
			}
			if rep.AbnormalFrags == 0 || rep.NormalFrags == 0 {
				t.Fatalf("%s shards=%d: diagnosis over %d abnormal / %d normal fragments",
					feed.name, shards, rep.AbnormalFrags, rep.NormalFrags)
			}
		}
	}
}

// TestMonitorDiagnoseEventDuringDelivery pins the tier's lock order
// under -race: DiagnoseEvent takes the monitor lock and then every
// plane's analysis lock in plane order while two goroutines keep
// delivering — and ticking windows on both planes — through the
// shards' wire sinks.
func TestMonitorDiagnoseEventDuringDelivery(t *testing.T) {
	copt, mopt := monOpts()
	tier := NewShardedPool(4, 2, copt)
	defer tier.Close()
	m := NewMonitor(tier, mopt)
	feedMonitor(m)
	events := m.Drain()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	var feeders sync.WaitGroup
	for g := 0; g < 2; g++ {
		feeders.Add(1)
		go func(g int) {
			defer feeders.Done()
			for i := int64(0); i < 200; i++ {
				for rank := g; rank < 4; rank += 2 {
					m.WireSink(tier.Owner(rank)).Consume(rank,
						[]trace.Fragment{monFrag(rank, 100_000_000+i*1_000_000, 1_000_000, false)})
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if rep := m.DiagnoseEvent(&events[0], diagnoseDefaults()); rep == nil || rep.AbnormalFrags == 0 {
			t.Fatalf("diagnosis %d during delivery: %+v", i, rep)
		}
	}
	feeders.Wait()
	m.Flush()
}
