package obs

// Spans is lightweight pipeline tracing: a fixed set of named stages,
// each backed by a latency histogram. Recording a span is one histogram
// observation (atomics) — no allocation, no lock. Stages are addressed
// by index (resolved once at construction), never by string on the hot
// path.
type Spans struct {
	hists []*Histogram
}

// NewSpans registers one latency histogram per stage into reg, named
// <prefix>_<stage>_ns, and returns the tracer. Stage order fixes the
// indices used with RecordNS.
func NewSpans(reg *Registry, prefix, layer string, stages ...string) *Spans {
	s := &Spans{hists: make([]*Histogram, len(stages))}
	for i, name := range stages {
		s.hists[i] = reg.Histogram(prefix+"_"+name+"_ns", layer,
			"span latency of the "+name+" stage (ns)", LatencyBounds())
	}
	return s
}

// RecordNS records one completed span of the given stage. Allocation-
// free; safe for concurrent use.
func (s *Spans) RecordNS(stage int, durNS int64) {
	if s == nil || stage < 0 || stage >= len(s.hists) {
		return
	}
	s.hists[stage].Observe(durNS)
}
