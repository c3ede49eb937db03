package stg

import (
	"strings"
	"testing"

	"vapro/internal/trace"
)

func TestDOT(t *testing.T) {
	g := New()
	g.SetName(1, `cg.f:1180 "send"`)
	g.SetName(2, "cg.f:1200")
	g.AddBatch([]trace.Fragment{fragComp(0, 1, 2, 0, 1_000_000)})
	g.AddBatch([]trace.Fragment{fragComp(0, 1, 2, 0, 3_000_000)})
	g.AddBatch([]trace.Fragment{fragComm(0, 2, 10, 5)})
	dot := g.DOT()
	if !strings.HasPrefix(dot, "digraph stg {") || !strings.HasSuffix(dot, "}\n") {
		t.Fatalf("dot framing: %q", dot)
	}
	if !strings.Contains(dot, "s1 -> s2") {
		t.Fatalf("edge missing:\n%s", dot)
	}
	if !strings.Contains(dot, "2 x 2.00ms") {
		t.Fatalf("edge stats missing:\n%s", dot)
	}
	if !strings.Contains(dot, `\"send\"`) {
		t.Fatalf("quotes not escaped:\n%s", dot)
	}
	if !strings.Contains(dot, "1 comm fragments") {
		t.Fatalf("vertex label missing:\n%s", dot)
	}
}
