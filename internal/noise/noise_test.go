package noise

import (
	"testing"

	"vapro/internal/sim"
)

func TestQuietSchedule(t *testing.T) {
	s := NewSchedule()
	c := s.At(0, 0, 0)
	if c != sim.Ideal() {
		t.Fatalf("empty schedule not ideal: %+v", c)
	}
}

func TestEventWindow(t *testing.T) {
	s := NewSchedule()
	s.Add(CPUContention(0, 1, 100, 200, 0.5))
	if c := s.At(0, 1, 50); c.CPUShare != 1 {
		t.Fatal("event active before start")
	}
	if c := s.At(0, 1, 150); c.CPUShare != 0.5 {
		t.Fatal("event inactive inside window")
	}
	if c := s.At(0, 1, 200); c.CPUShare != 1 {
		t.Fatal("event active at end (end is exclusive)")
	}
}

func TestEventForeverWindow(t *testing.T) {
	s := NewSchedule()
	s.Add(Event{Start: 100, End: 0, Node: -1, Core: -1, MemSlowdown: 2})
	if c := s.At(3, 7, 1e12); c.MemSlowdown != 2 {
		t.Fatal("open-ended event expired")
	}
}

func TestTargetSelection(t *testing.T) {
	s := NewSchedule()
	s.Add(CPUContention(1, 2, 0, 100, 0.5))
	if c := s.At(1, 2, 50); c.CPUShare != 0.5 {
		t.Fatal("target core missed")
	}
	if c := s.At(1, 3, 50); c.CPUShare != 1 {
		t.Fatal("wrong core hit")
	}
	if c := s.At(0, 2, 50); c.CPUShare != 1 {
		t.Fatal("wrong node hit")
	}
}

func TestNodeWideEvent(t *testing.T) {
	s := NewSchedule()
	s.Add(NodeCPUContention(1, 0, 100, 0.5))
	for core := 0; core < 8; core++ {
		if c := s.At(1, core, 50); c.CPUShare != 0.5 {
			t.Fatalf("core %d missed by node-wide event", core)
		}
	}
	if c := s.At(0, 0, 50); c.CPUShare != 1 {
		t.Fatal("node-wide event leaked to other node")
	}
}

func TestComposition(t *testing.T) {
	s := NewSchedule()
	s.Add(MemContention(0, 0, 100, 2))
	s.Add(MemContention(0, 0, 100, 3))
	s.Add(CPUContention(0, 0, 0, 100, 0.5))
	s.Add(CPUContention(0, 0, 0, 100, 0.8))
	c := s.At(0, 0, 50)
	if c.MemSlowdown != 6 {
		t.Fatalf("mem slowdowns must multiply: %v", c.MemSlowdown)
	}
	if c.CPUShare != 0.4 {
		t.Fatalf("cpu shares must multiply: %v", c.CPUShare)
	}
}

func TestAddAfterUsePanics(t *testing.T) {
	s := NewSchedule()
	s.Add(MemContention(0, 0, 100, 2))
	s.At(0, 0, 0) // seals
	defer func() {
		if recover() == nil {
			t.Fatal("Add after use did not panic")
		}
	}()
	s.Add(MemContention(0, 0, 100, 2))
}

func TestDegradedMemoryNode(t *testing.T) {
	ev := DegradedMemoryNode(3, 0.845)
	if ev.Node != 3 || !ev.AllCores {
		t.Fatalf("selector: %+v", ev)
	}
	// bw^-1.5 for bw=0.845 ≈ 1.287.
	if ev.MemSlowdown < 1.25 || ev.MemSlowdown > 1.33 {
		t.Fatalf("superlinear slowdown: %v", ev.MemSlowdown)
	}
	// Invalid fraction falls back to the paper's deficit.
	if DegradedMemoryNode(0, 2).MemSlowdown != DegradedMemoryNode(0, 0.845).MemSlowdown {
		t.Fatal("invalid bwFraction not defaulted")
	}
}

func TestL2ErratumEpisodes(t *testing.T) {
	evs := L2Erratum(0, 18, 35, false, 1, 10*sim.Second)
	if len(evs) == 0 {
		t.Fatal("no episodes over a 10s horizon with seed 1")
	}
	for _, e := range evs {
		if e.Node != 0 || e.Core < 18 || e.Core > 35 {
			t.Fatalf("episode off-socket: %+v", e)
		}
		if e.End <= e.Start {
			t.Fatalf("episode without duration: %+v", e)
		}
		if e.L2BugProb <= 0 || e.L2BugSeverity <= 0 {
			t.Fatalf("inert episode: %+v", e)
		}
	}
	// Determinism.
	evs2 := L2Erratum(0, 18, 35, false, 1, 10*sim.Second)
	if len(evs) != len(evs2) {
		t.Fatal("episode generation not deterministic")
	}
	// Mitigation weakens episodes.
	var rawSev, mitSev float64
	for _, e := range evs {
		rawSev += e.L2BugSeverity
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, e := range L2Erratum(0, 18, 35, true, seed, 10*sim.Second) {
			mitSev += e.L2BugSeverity
		}
	}
	if mitSev >= rawSev {
		t.Fatalf("huge pages did not weaken the erratum: %v vs %v", mitSev, rawSev)
	}
}

func TestIOInterference(t *testing.T) {
	s := NewSchedule()
	s.Add(IOInterference(0, 100, 5))
	if c := s.At(9, 9, 50); c.IOSlowdown != 5 {
		t.Fatal("IO interference must be machine-wide")
	}
}

func TestL2BugProbClamp(t *testing.T) {
	s := NewSchedule()
	s.Add(Event{Node: -1, Core: -1, L2BugProb: 0.8})
	s.Add(Event{Node: -1, Core: -1, L2BugProb: 0.8})
	if c := s.At(0, 0, 0); c.L2BugProb > 1 {
		t.Fatalf("probability not clamped: %v", c.L2BugProb)
	}
}
