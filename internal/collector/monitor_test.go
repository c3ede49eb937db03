package collector

import (
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

// feedMonitor streams a synthetic run: 4 ranks, 1ms fragments over
// 100ms, with rank 2 running 2x slower during [40ms, 70ms).
func feedMonitor(m *Monitor) {
	for rank := 0; rank < 4; rank++ {
		t := int64(0)
		var batch []trace.Fragment
		for t < 100_000_000 {
			el := int64(1_000_000)
			if rank == 2 && t >= 40_000_000 && t < 70_000_000 {
				el = 2_000_000
			}
			batch = append(batch, monFrag(rank, t, el, el > 1_000_000))
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

func monOpts(ranks int) MonitorOptions {
	opt := DefaultMonitorOptions(ranks)
	opt.Period = 20 * sim.Millisecond
	opt.Overlap = 10 * sim.Millisecond
	opt.Detect.Window = 5 * sim.Millisecond
	opt.MinRegionLoss = sim.Millisecond
	return opt
}

func TestMonitorDetectsOnline(t *testing.T) {
	pool := NewPool(4, DefaultOptions())
	m := NewMonitor(pool, monOpts(4))
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
	pool := NewPool(4, DefaultOptions())
	m := NewMonitor(pool, monOpts(4))
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
	pool := NewPool(4, DefaultOptions())
	m := NewMonitor(pool, monOpts(4))
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
	pool := NewPool(4, DefaultOptions())
	m := NewMonitor(pool, monOpts(4))
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
	pool := NewPool(4, DefaultOptions())
	m := NewMonitor(pool, monOpts(4))
	feedMonitor(m)
	hits, misses := m.CacheStats()
	if misses == 0 {
		t.Fatal("monitor never clustered anything")
	}
	if hits == 0 {
		t.Fatal("overlapped windows re-clustered every element (no cache hits)")
	}
}

func TestMonitorDiagnoseEvent(t *testing.T) {
	pool := NewPool(4, DefaultOptions())
	m := NewMonitor(pool, monOpts(4))
	feedMonitor(m)
	events := m.Drain()
	if len(events) == 0 {
		t.Skip("no events")
	}
	rep := m.DiagnoseEvent(&events[0], diagnoseDefaults())
	if rep == nil {
		t.Fatal("no diagnosis")
	}
	if rep.AbnormalFrags == 0 {
		t.Fatal("diagnosis saw no abnormal fragments")
	}
}
