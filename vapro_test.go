package vapro_test

import (
	"strings"
	"testing"

	"vapro"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	app, err := vapro.App("CG")
	if err != nil {
		t.Fatal(err)
	}

	opt := vapro.DefaultOptions()
	opt.Ranks = 16

	probe, _ := vapro.App("CG")
	plain := vapro.RunPlain(probe, opt)
	if plain.Makespan <= 0 {
		t.Fatal("plain run did nothing")
	}

	sch := vapro.NewNoise()
	mid := plain.Makespan.Seconds()
	sch.Add(vapro.CPUContention(0, 1, vapro.Seconds(0.5*mid), vapro.Seconds(0.9*mid), 0.5))
	opt.Noise = sch

	res := vapro.Run(app, opt)
	if res.Detection.OverallCoverage <= 0.3 {
		t.Fatalf("coverage %v", res.Detection.OverallCoverage)
	}
	if s := res.Summary(); !strings.Contains(s, "CG") {
		t.Fatalf("summary: %q", s)
	}
	if hm := vapro.RenderHeatMap(res, vapro.Computation); !strings.Contains(hm, "heat map") {
		t.Fatalf("heat map render: %q", hm[:60])
	}
	if rep := res.DiagnoseTop(vapro.Computation, vapro.DefaultDiagnoseOptions()); rep != nil {
		if rep.String() == "" {
			t.Fatal("empty diagnosis report")
		}
	}
}

func TestAppsListed(t *testing.T) {
	names := vapro.Apps()
	if len(names) < 20 {
		t.Fatalf("only %d apps bundled", len(names))
	}
	if _, err := vapro.App("not-an-app"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestNoiseConstructors(t *testing.T) {
	sch := vapro.NewNoise()
	sch.Add(vapro.MemContention(0, vapro.Seconds(0), vapro.Seconds(1), 2))
	sch.Add(vapro.IOInterference(vapro.Seconds(0), vapro.Seconds(1), 3))
	sch.Add(vapro.DegradedMemoryNode(1, 0.845))
	if c := sch.At(0, 0, vapro.Seconds(0.5)); c.MemSlowdown != 2 || c.IOSlowdown != 3 {
		t.Fatalf("noise constructors on node 0: %+v", c)
	}
	if c := sch.At(1, 0, vapro.Seconds(0.5)); c.MemSlowdown <= 1 || c.IOSlowdown != 3 {
		t.Fatalf("noise constructors on node 1: %+v", c)
	}
	if vapro.Seconds(1.5) != vapro.Time(1500000000) {
		t.Fatal("Seconds conversion")
	}
}
