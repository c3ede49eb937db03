package obs

import (
	"encoding/json"
	"fmt"
)

// Declarative health rules over the metric rings: each rule names a
// metric, how to read it (instant value, ring rate, or current-p99 vs
// the ring's median p99), and the degraded/critical thresholds. The
// collector's pool evaluates the table per plane over that plane's own
// registry and folds plane states into one fleet state, so "is the
// fleet ok" is a table lookup, not a human squinting at counters.

// HealthState orders ok < degraded < critical.
type HealthState int

const (
	HealthOK HealthState = iota
	HealthDegraded
	HealthCritical
)

var healthNames = [...]string{"ok", "degraded", "critical"}

func (s HealthState) String() string {
	if s < 0 || int(s) >= len(healthNames) {
		return "unknown"
	}
	return healthNames[s]
}

// MarshalJSON renders the state as its name ("ok"), keeping the JSON
// schema readable without a decoder-side enum table.
func (s HealthState) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// UnmarshalJSON accepts the state name, so FleetStatus round-trips
// through HTTP. An unknown name is an error: the body came from outside
// the process, and no state it could mean is safe to guess.
func (s *HealthState) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range healthNames {
		if n == name {
			*s = HealthState(i)
			return nil
		}
	}
	return fmt.Errorf("unknown health state %q", name)
}

// RuleKind selects how a rule reads its metric.
type RuleKind int

const (
	// RuleValue compares the metric's instant value.
	RuleValue RuleKind = iota
	// RuleRate compares the metric's per-second rate over the series
	// ring (counters: events/s across the ring's window).
	RuleRate
	// RuleP99Ratio compares the metric's current histogram p99 against
	// the median p99 across the ring — "is latency N× its own recent
	// reference window". Needs a few points of history to fire.
	RuleP99Ratio
)

// HealthRule is one row of the rule table. A reading >= Critical is
// critical, >= Degraded is degraded; thresholds <= 0 disable that tier.
type HealthRule struct {
	Name     string // rule name, used in reasons ("intake-stall-rate")
	Metric   string // metric name the rule reads
	Kind     RuleKind
	Degraded float64
	Critical float64
}

// read extracts the rule's reading. ok=false means not enough data
// (metric absent, or too little ring history for a ratio) — the rule
// abstains rather than guessing.
func (r *HealthRule) read(snap *Snapshot, series *SeriesSet) (float64, bool) {
	switch r.Kind {
	case RuleRate:
		s := series.Get(r.Metric)
		if s.Len() < 2 {
			return 0, false
		}
		return s.Rate(), true
	case RuleP99Ratio:
		s := series.Get(r.Metric + histP99Suffix)
		if s.Len() < 3 {
			return 0, false
		}
		ref := s.Median()
		if ref <= 0 {
			return 0, false
		}
		return s.Last() / ref, true
	default: // RuleValue
		if snap == nil {
			return 0, false
		}
		m := snap.Get(r.Metric)
		if m == nil {
			return 0, false
		}
		return m.Value, true
	}
}

// HealthReport is one evaluation of a rule table: the folded state and
// one reason string per rule that fired, worst first.
type HealthReport struct {
	State   HealthState `json:"state"`
	Reasons []string    `json:"reasons,omitempty"`
}

// EvalHealth evaluates the rule table against one snapshot and its
// series history. A nil series set makes rate/ratio rules abstain.
func EvalHealth(rules []HealthRule, snap *Snapshot, series *SeriesSet) HealthReport {
	rep := HealthReport{State: HealthOK}
	for i := range rules {
		r := &rules[i]
		v, ok := r.read(snap, series)
		if !ok {
			continue
		}
		var st HealthState
		switch {
		case r.Critical > 0 && v >= r.Critical:
			st = HealthCritical
		case r.Degraded > 0 && v >= r.Degraded:
			st = HealthDegraded
		default:
			continue
		}
		rep.State = max(rep.State, st)
		rep.Reasons = append(rep.Reasons, fmt.Sprintf("%s: %s %s=%.3g (degraded>=%.3g critical>=%.3g)",
			st, r.Name, r.Metric, v, r.Degraded, r.Critical))
	}
	// Critical reasons ahead of degraded ones without disturbing rule
	// order within a tier.
	if len(rep.Reasons) > 1 {
		var crit, rest []string
		for _, s := range rep.Reasons {
			if len(s) >= 8 && s[:8] == "critical" {
				crit = append(crit, s)
			} else {
				rest = append(rest, s)
			}
		}
		rep.Reasons = append(crit, rest...)
	}
	return rep
}

// DefaultHealthRules is the shipped rule table: intake stall rate,
// sequence-gap rate, spill depth, and analysis tick latency vs its own
// reference window.
func DefaultHealthRules() []HealthRule {
	return []HealthRule{
		{Name: "intake-stall-rate", Metric: "vapro_intake_stalls_total", Kind: RuleRate, Degraded: 1, Critical: 10},
		{Name: "seq-gap-rate", Metric: "vapro_wire_seq_gaps_total", Kind: RuleRate, Degraded: 0.5, Critical: 5},
		{Name: "spill-depth", Metric: "vapro_net_spill_depth", Kind: RuleValue, Degraded: 64, Critical: 512},
		{Name: "tick-latency-p99", Metric: "vapro_detect_window_ns", Kind: RuleP99Ratio, Degraded: 2, Critical: 4},
	}
}
