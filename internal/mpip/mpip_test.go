package mpip

import (
	"testing"

	"vapro/internal/stg"
	"vapro/internal/trace"
)

func buildGraph() *stg.Graph {
	g := stg.New()
	for rank := 0; rank < 4; rank++ {
		g.AddBatch([]trace.Fragment{{Rank: rank, Kind: trace.Comp, From: 1, State: 2, Elapsed: 1000}})
		g.AddBatch([]trace.Fragment{{Rank: rank, Kind: trace.Comm, State: 2, Elapsed: 300}})
		g.AddBatch([]trace.Fragment{{Rank: rank, Kind: trace.Sync, State: 3, Elapsed: 200}})
		g.AddBatch([]trace.Fragment{{Rank: rank, Kind: trace.IO, State: 4, Elapsed: 100}})
	}
	return g
}

func TestProfile(t *testing.T) {
	ps := Profile(buildGraph(), 4)
	if len(ps) != 4 {
		t.Fatalf("profiles: %d", len(ps))
	}
	for _, p := range ps {
		if p.CompNS != 1000 {
			t.Fatalf("comp: %d", p.CompNS)
		}
		if p.CommNS != 500 { // comm + sync
			t.Fatalf("comm: %d", p.CommNS)
		}
		if p.IONS != 100 {
			t.Fatalf("io: %d", p.IONS)
		}
	}
}

func TestProfileIgnoresOutOfRange(t *testing.T) {
	g := buildGraph()
	g.AddBatch([]trace.Fragment{{Rank: 99, Kind: trace.Comp, Elapsed: 1e9}})
	ps := Profile(g, 4)
	for _, p := range ps {
		if p.CompNS > 1000 {
			t.Fatal("out-of-range rank leaked into profile")
		}
	}
}

func TestSummarize(t *testing.T) {
	ps := Profile(buildGraph(), 4)
	ps[2].CommNS = 5000
	s := Summarize(ps)
	if s.MaxCommRank != 2 || s.MaxCommNS != 5000 {
		t.Fatalf("max comm: %+v", s)
	}
	if s.MeanCompNS != 1000 {
		t.Fatalf("mean comp: %v", s.MeanCompNS)
	}
	if (Summary{}) != Summarize(nil) {
		t.Fatal("empty summarize")
	}
}
