package obs

import (
	"strings"
	"testing"
	"time"
)

func TestSeriesRingAndRate(t *testing.T) {
	s := NewSeries(4)
	if s.Rate() != 0 || s.Last() != 0 || s.Median() != 0 {
		t.Fatal("empty series not zero")
	}
	base := int64(0)
	for i, v := range []float64{10, 20, 40, 70, 110} { // 5 points into cap 4
		s.Add(base+int64(i)*int64(time.Second), v)
	}
	if s.Len() != 4 {
		t.Fatalf("len %d", s.Len())
	}
	pts := s.Points()
	if pts[0].Value != 20 || pts[3].Value != 110 {
		t.Fatalf("eviction order wrong: %+v", pts)
	}
	// Rate spans the ring window: (110-20)/3s.
	if got := s.Rate(); got != 30 {
		t.Fatalf("rate %v", got)
	}
	if s.Last() != 110 {
		t.Fatalf("last %v", s.Last())
	}
	// A counter reset (restart) reads as 0, not a negative rate.
	s.Add(base+10*int64(time.Second), 5)
	if got := s.Rate(); got != 0 {
		t.Fatalf("reset rate %v, want 0", got)
	}
	// Degenerate capacity is clamped to 2.
	tiny := NewSeries(0)
	tiny.Add(0, 1)
	tiny.Add(int64(time.Second), 3)
	if tiny.Rate() != 2 {
		t.Fatalf("tiny rate %v", tiny.Rate())
	}
}

func TestSeriesSetObserveHistP99(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "x", "").Add(5)
	h := reg.Histogram("h_ns", "x", "", []int64{10, 100})
	h.Observe(50)
	ss := NewSeriesSet(8)
	ss.Observe(nil, 0) // nil snapshot is a no-op
	snap := reg.Snapshot()
	ss.Observe(&snap, int64(time.Second))
	if ss.Get("c_total").Last() != 5 {
		t.Fatal("counter series missing")
	}
	// Histograms get both a count series and a derived :p99 series.
	if ss.Get("h_ns") == nil || ss.Get("h_ns"+histP99Suffix) == nil {
		t.Fatal("hist series missing")
	}
	if got := ss.Get("h_ns" + histP99Suffix).Last(); got != snap.Get("h_ns").Hist.P99 {
		t.Fatalf("p99 series %v", got)
	}
	var nilSet *SeriesSet
	if nilSet.Get("x") != nil || nilSet.Get("x").Rate() != 0 {
		t.Fatal("nil set not inert")
	}
}

func TestEvalHealthRules(t *testing.T) {
	rules := []HealthRule{
		{Name: "stall-rate", Metric: "stalls_total", Kind: RuleRate, Degraded: 1, Critical: 10},
		{Name: "depth", Metric: "depth", Kind: RuleValue, Degraded: 64, Critical: 512},
		{Name: "lat", Metric: "h_ns", Kind: RuleP99Ratio, Degraded: 2, Critical: 4},
	}
	reg := NewRegistry()
	depth := reg.Gauge("depth", "x", "")
	stalls := reg.Counter("stalls_total", "x", "")
	snap := reg.Snapshot()

	// No series history: rate and ratio abstain; value rule reads ok.
	rep := EvalHealth(rules, &snap, nil)
	if rep.State != HealthOK || len(rep.Reasons) != 0 {
		t.Fatalf("quiet eval: %+v", rep)
	}

	// Degraded value.
	depth.Set(100)
	snap = reg.Snapshot()
	rep = EvalHealth(rules, &snap, nil)
	if rep.State != HealthDegraded || len(rep.Reasons) != 1 {
		t.Fatalf("degraded value: %+v", rep)
	}
	if !strings.Contains(rep.Reasons[0], "depth=100") {
		t.Fatalf("reason: %q", rep.Reasons[0])
	}

	// Rate rule needs two points; 30 stalls over 2s = 15/s → critical,
	// and critical reasons sort ahead of degraded ones.
	ss := NewSeriesSet(8)
	ss.Observe(&snap, 0)
	stalls.Add(30)
	snap = reg.Snapshot()
	ss.Observe(&snap, 2*int64(time.Second))
	rep = EvalHealth(rules, &snap, ss)
	if rep.State != HealthCritical || len(rep.Reasons) != 2 {
		t.Fatalf("critical rate: %+v", rep)
	}
	if !strings.HasPrefix(rep.Reasons[0], "critical: stall-rate") {
		t.Fatalf("critical reason not first: %v", rep.Reasons)
	}

	// Ratio rule: three points of p99 history, last one 5× the median.
	hreg := NewRegistry()
	h := hreg.Histogram("h_ns", "x", "", []int64{100, 1000, 10000})
	hs := NewSeriesSet(8)
	h.Observe(50)
	s1 := hreg.Snapshot()
	hs.Observe(&s1, 0)
	h.Observe(50)
	s2 := hreg.Snapshot()
	hs.Observe(&s2, int64(time.Second))
	for i := 0; i < 500; i++ {
		h.Observe(9000) // drags current p99 far above the reference
	}
	s3 := hreg.Snapshot()
	hs.Observe(&s3, 2*int64(time.Second))
	rep = EvalHealth(rules[2:], &s3, hs)
	if rep.State == HealthOK {
		t.Fatalf("latency blowup not flagged: %+v", rep)
	}
	if !strings.Contains(rep.Reasons[0], "lat h_ns=") {
		t.Fatalf("ratio reason: %v", rep.Reasons)
	}

	// Thresholds <= 0 disable a tier.
	off := []HealthRule{{Name: "d", Metric: "depth", Kind: RuleValue, Degraded: 0, Critical: 0}}
	if rep := EvalHealth(off, &snap, nil); rep.State != HealthOK {
		t.Fatalf("disabled rule fired: %+v", rep)
	}
}

func TestHealthStateJSONRoundTrip(t *testing.T) {
	for _, st := range []HealthState{HealthOK, HealthDegraded, HealthCritical} {
		b, err := st.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back HealthState
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back != st {
			t.Fatalf("%v round-tripped to %v", st, back)
		}
	}
	// An unknown name is refused, naming the value, and leaves the
	// state untouched.
	odd := HealthDegraded
	err := odd.UnmarshalJSON([]byte(`"unreachable"`))
	if err == nil || !strings.Contains(err.Error(), `"unreachable"`) || odd != HealthDegraded {
		t.Fatalf("unknown name: state %v, err %v", odd, err)
	}
}

func TestDefaultHealthRulesShape(t *testing.T) {
	rules := DefaultHealthRules()
	if len(rules) != 4 {
		t.Fatalf("rules: %d", len(rules))
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if r.Name == "" || r.Metric == "" || r.Degraded <= 0 || r.Critical < r.Degraded {
			t.Fatalf("malformed rule: %+v", r)
		}
		seen[r.Name] = true
	}
	for _, want := range []string{"intake-stall-rate", "seq-gap-rate", "spill-depth", "tick-latency-p99"} {
		if !seen[want] {
			t.Fatalf("missing rule %s", want)
		}
	}
}
