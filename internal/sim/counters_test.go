package sim

import "testing"

func sampleCounters() Counters {
	return Counters{
		TotIns: 1000, Cycles: 500, TSC: 700,
		SlotsFrontend: 100, SlotsBadSpec: 50, SlotsRetiring: 1000, SlotsBackend: 850,
		SlotsCore: 200, SlotsMemory: 650,
		SlotsL1: 100, SlotsL2: 150, SlotsL3: 200, SlotsDRAM: 200,
		Suspension: 42, SoftPF: 3, HardPF: 1, VolCS: 2, InvolCS: 5, Signals: 1,
		LoadStores: 400, CacheMisses: 7, L2MissStall: 9,
	}
}

func TestCountersAdd(t *testing.T) {
	a := sampleCounters()
	b := sampleCounters()
	a.Add(b)
	if a.TotIns != 2000 || a.Cycles != 1000 || a.TSC != 1400 {
		t.Fatalf("Add base fields: %+v", a)
	}
	if a.SlotsDRAM != 400 || a.InvolCS != 10 || a.Suspension != 84 {
		t.Fatalf("Add detail fields: %+v", a)
	}
}

func TestGroupHasAndCount(t *testing.T) {
	g := GroupBase | GroupOS
	if !g.Has(GroupBase) || !g.Has(GroupOS) || g.Has(GroupMemory) {
		t.Fatal("Has misbehaves")
	}
	if g.Count() != 2 {
		t.Fatalf("Count = %d", g.Count())
	}
	if all := GroupBase | GroupTopdownL1 | GroupBackend | GroupMemory | GroupOS | GroupExtra; all.Count() != 6 {
		t.Fatalf("Count of every group = %d", all.Count())
	}
}
