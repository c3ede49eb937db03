package collector

import (
	"fmt"

	"vapro/internal/obs"
)

// Fleet health (DESIGN §13): the pool judges its own planes. Health
// takes every plane's registry snapshot in-process, appends it to that
// plane's series rings (rates and reference windows need history),
// evaluates the declarative rule table per plane, and folds the plane
// states into one fleet state. Pool.Handler serves the result at
// /fleet, beside the merged registry and /trace.

// fleetSeriesLen is the per-metric series ring capacity.
const fleetSeriesLen = 64

// ShardStatus is one plane's row in the fleet view — the stable schema
// `vapro status -json` emits.
type ShardStatus struct {
	Shard         int             `json:"shard"`
	Target        string          `json:"target,omitempty"` // the plane's published wire address
	State         obs.HealthState `json:"state"`
	Reasons       []string        `json:"reasons,omitempty"`
	ResidentRanks float64         `json:"resident_ranks"`
	IntakeStaged  float64         `json:"intake_staged"`
	SeqGaps       float64         `json:"seq_gaps"`
}

// FleetStatus is the machine-readable fleet view served at /fleet.
type FleetStatus struct {
	State      obs.HealthState `json:"state"`
	Reasons    []string        `json:"reasons,omitempty"`
	Ranks      float64         `json:"ranks"`
	Servers    float64         `json:"servers"`
	WireFrames float64         `json:"wire_frames"`
	SeqGaps    float64         `json:"seq_gaps"`
	Shards     []ShardStatus   `json:"shards"`
}

// Health evaluates every plane at ns and returns the fleet view. Each
// call appends one point per metric to each plane's series, so a
// caller on a regular cadence (vapro serve ticks it every second)
// gives the rate and ratio rules their history; reads of /fleet call
// it too. Calls are serialized.
func (p *Pool) Health(ns int64) FleetStatus {
	p.hmu.Lock()
	defer p.hmu.Unlock()
	addrs := p.ShardMap().Addrs
	rules := obs.DefaultHealthRules()
	st := FleetStatus{Ranks: float64(p.ranks), Servers: float64(len(p.planes))}
	critical := 0
	for i, pl := range p.planes {
		snap := pl.met.Registry.Snapshot()
		p.series[i].Observe(&snap, ns)
		rep := obs.EvalHealth(rules, &snap, p.series[i])
		row := ShardStatus{
			Shard:         i,
			Target:        addrs[i],
			State:         rep.State,
			Reasons:       rep.Reasons,
			ResidentRanks: float64(p.resident[i]),
			IntakeStaged:  float64(pl.stagedNow()),
			SeqGaps:       float64(pl.met.WireSeqGaps.Load()),
		}
		st.Shards = append(st.Shards, row)
		st.WireFrames += float64(pl.met.WireFrames.Load())
		st.SeqGaps += row.SeqGaps
		// The fold: any non-ok plane degrades the fleet, more than half
		// critical makes it critical, and every reason keeps its plane.
		if row.State == obs.HealthOK {
			continue
		}
		st.State = obs.HealthDegraded
		if row.State == obs.HealthCritical {
			critical++
		}
		for _, r := range row.Reasons {
			st.Reasons = append(st.Reasons, fmt.Sprintf("shard %d: %s", i, r))
		}
	}
	if critical*2 > len(p.planes) {
		st.State = obs.HealthCritical
	}
	p.health.Set(int64(st.State))
	return st
}
