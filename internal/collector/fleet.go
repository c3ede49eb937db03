package collector

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"vapro/internal/obs"
)

// Fleet observability: a FleetScraper polls every shard's existing
// metrics endpoint (the addresses come from the same ShardMap the wire
// hello publishes), folds the per-shard snapshots into one merged
// registry view, keeps a short time-series ring per metric for rate and
// reference-window computation, and evaluates the declarative health
// rules into per-shard and fleet states. A failed scrape is a first-
// class outcome — the shard shows up as unreachable with the error, it
// is never silently omitted.

// fleetSeriesLen is the per-metric time-series ring capacity.
const fleetSeriesLen = 64

// FleetOptions tunes the scraper.
type FleetOptions struct {
	// Interval between scrape sweeps in Run. 0 means 2s.
	Interval time.Duration
	// Timeout bounds one shard scrape. 0 means 2s.
	Timeout time.Duration
	// Fetch overrides the HTTP scrape (deterministic tests plug in
	// registries directly). Nil means an HTTP GET of
	// http://<target>/metrics?format=json.
	Fetch func(target string) (obs.Snapshot, error)
	// Now overrides the series timestamp source (tests). Nil means wall.
	Now func() int64
}

// ShardStatus is one shard's row in the fleet view — the single stable
// schema `vapro status -json` emits for both fleet and per-shard views.
type ShardStatus struct {
	Shard         int             `json:"shard"`
	Target        string          `json:"target,omitempty"`
	State         obs.HealthState `json:"state"`
	Reasons       []string        `json:"reasons,omitempty"`
	Error         string          `json:"error,omitempty"` // last scrape failure
	ResidentRanks float64         `json:"resident_ranks"`
	IntakeStaged  float64         `json:"intake_staged"`
	SeqGaps       float64         `json:"seq_gaps"`
}

// FleetStatus is the machine-readable fleet (or single-endpoint) view.
type FleetStatus struct {
	Source         string          `json:"source"` // "fleet" or "endpoint"
	State          obs.HealthState `json:"state"`
	Reasons        []string        `json:"reasons,omitempty"`
	Ranks          float64         `json:"ranks"`
	Servers        float64         `json:"servers"`
	WireFrames     float64         `json:"wire_frames"`
	SeqGaps        float64         `json:"seq_gaps"`
	Scrapes        uint64          `json:"scrapes"`
	ScrapeFailures uint64          `json:"scrape_failures"`
	Shards         []ShardStatus   `json:"shards"`
}

// fleetShard is the scraper's per-target state.
type fleetShard struct {
	target  string
	snap    *obs.Snapshot // last successful scrape (kept across failures)
	series  *obs.SeriesSet
	health  obs.HealthReport
	lastErr string
}

// FleetScraper polls shard metrics endpoints into one merged view.
type FleetScraper struct {
	opt   FleetOptions
	rules []obs.HealthRule // obs.DefaultHealthRules
	now   func() int64
	fetch func(target string) (obs.Snapshot, error)

	// reg holds the scraper's own metrics (scrape counters, health
	// gauge). They exist on no shard, so merging them in cannot disturb
	// the fleet-sum == Σ-shard-counters invariant.
	reg      *obs.Registry
	scrapes  *obs.Counter
	failures *obs.Counter
	health   *obs.Gauge

	mu     sync.Mutex
	shards []*fleetShard
	state  obs.HealthState
	why    []string
}

// NewFleetScraper builds a scraper over the shard metrics addresses
// (index = shard id, matching ShardMap order).
func NewFleetScraper(targets []string, opt FleetOptions) *FleetScraper {
	if opt.Interval <= 0 {
		opt.Interval = 2 * time.Second
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 2 * time.Second
	}
	f := &FleetScraper{opt: opt, rules: obs.DefaultHealthRules(), now: opt.Now, fetch: opt.Fetch, reg: obs.NewRegistry()}
	if f.now == nil {
		f.now = func() int64 { return time.Now().UnixNano() }
	}
	if f.fetch == nil {
		f.fetch = f.httpFetch
	}
	f.scrapes = f.reg.Counter("vapro_fleet_scrapes_total", "fleet",
		"shard scrape attempts by the fleet scraper")
	f.failures = f.reg.Counter("vapro_fleet_scrape_failures_total", "fleet",
		"shard scrapes that failed (shard reported unreachable)")
	f.health = f.reg.Gauge("vapro_fleet_health", "fleet",
		"fleet health state (0 ok, 1 degraded, 2 critical, 3 unreachable)")
	f.reg.Func("vapro_fleet_shards", "fleet",
		"shard endpoints the fleet scraper polls", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(len(f.shards))
		})
	f.SetTargets(targets)
	return f
}

// SetTargets replaces the polled address set (a rebalanced ShardMap's
// addresses; index = shard id). Per-shard history is kept for targets
// whose address is unchanged.
func (f *FleetScraper) SetTargets(targets []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	next := make([]*fleetShard, len(targets))
	for i, tgt := range targets {
		if i < len(f.shards) && f.shards[i].target == tgt {
			next[i] = f.shards[i]
			continue
		}
		next[i] = &fleetShard{target: tgt, series: obs.NewSeriesSet(fleetSeriesLen)}
	}
	f.shards = next
}

// httpFetch is the default scrape: GET the shard's JSON snapshot.
func (f *FleetScraper) httpFetch(target string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	cl := &http.Client{Timeout: f.opt.Timeout}
	resp, err := cl.Get(fmt.Sprintf("http://%s/metrics?format=json", target))
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("status %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, err
	}
	return snap, nil
}

// ScrapeOnce polls every target once, re-evaluates per-shard and fleet
// health, and returns the resulting status. Run calls it on a ticker;
// tests call it directly for deterministic sequencing.
func (f *FleetScraper) ScrapeOnce() FleetStatus {
	f.mu.Lock()
	shards := append([]*fleetShard(nil), f.shards...)
	f.mu.Unlock()

	type outcome struct {
		snap obs.Snapshot
		err  error
	}
	results := make([]outcome, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			snap, err := f.fetch(target)
			results[i] = outcome{snap: snap, err: err}
		}(i, sh.target)
	}
	wg.Wait()

	now := f.now()
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, sh := range shards {
		f.scrapes.Inc()
		if err := results[i].err; err != nil {
			f.failures.Inc()
			sh.lastErr = err.Error()
			sh.health = obs.HealthReport{
				State:   obs.HealthUnreachable,
				Reasons: []string{fmt.Sprintf("scrape failed: %v", err)},
			}
			continue
		}
		snap := results[i].snap
		sh.lastErr = ""
		sh.snap = &snap
		sh.series.Observe(&snap, now)
		sh.health = obs.EvalHealth(f.rules, &snap, sh.series)
	}
	f.state, f.why = foldFleetHealth(shards)
	f.health.Set(int64(f.state))
	return f.statusLocked()
}

// foldFleetHealth derives the fleet state from the shard states: ok
// only when every shard is ok; critical when more than half the shards
// are critical or unreachable; degraded otherwise. Reasons carry the
// shard attribution so "which shard, why" survives aggregation.
func foldFleetHealth(shards []*fleetShard) (obs.HealthState, []string) {
	if len(shards) == 0 {
		return obs.HealthOK, nil
	}
	bad := 0
	state := obs.HealthOK
	var why []string
	for i, sh := range shards {
		if sh.health.State == obs.HealthOK {
			continue
		}
		if state < obs.HealthDegraded {
			state = obs.HealthDegraded
		}
		if sh.health.State >= obs.HealthCritical {
			bad++
		}
		for _, r := range sh.health.Reasons {
			why = append(why, fmt.Sprintf("shard %d: %s", i, r))
		}
	}
	if bad*2 > len(shards) {
		state = obs.HealthCritical
	}
	return state, why
}

// Merged returns the merged fleet snapshot: every shard's last known
// snapshot folded with the merge rules, plus the scraper's own
// fleet-layer metrics.
func (f *FleetScraper) Merged() obs.Snapshot {
	f.mu.Lock()
	snaps := make([]obs.Snapshot, 0, len(f.shards)+1)
	for _, sh := range f.shards {
		if sh.snap != nil {
			snaps = append(snaps, *sh.snap)
		}
	}
	f.mu.Unlock()
	snaps = append(snaps, f.reg.Snapshot())
	return obs.MergeSnapshots(snaps)
}

// Status returns the current fleet view without scraping.
func (f *FleetScraper) Status() FleetStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.statusLocked()
}

// statusLocked builds the fleet status from the held state. Caller
// holds f.mu.
func (f *FleetScraper) statusLocked() FleetStatus {
	st := FleetStatus{
		Source:         "fleet",
		State:          f.state,
		Reasons:        append([]string(nil), f.why...),
		Scrapes:        f.scrapes.Load(),
		ScrapeFailures: f.failures.Load(),
	}
	snaps := make([]obs.Snapshot, 0, len(f.shards))
	for i, sh := range f.shards {
		row := ShardStatus{
			Shard:   i,
			Target:  sh.target,
			State:   sh.health.State,
			Reasons: append([]string(nil), sh.health.Reasons...),
			Error:   sh.lastErr,
		}
		if sh.snap != nil {
			row.ResidentRanks = snapVal(sh.snap, "vapro_ranks")
			row.IntakeStaged = snapVal(sh.snap, "vapro_intake_staged")
			row.SeqGaps = snapVal(sh.snap, "vapro_wire_seq_gaps_total")
			snaps = append(snaps, *sh.snap)
		}
		st.Shards = append(st.Shards, row)
	}
	merged := obs.MergeSnapshots(snaps)
	st.Ranks = snapVal(&merged, "vapro_ranks")
	st.Servers = snapVal(&merged, "vapro_servers")
	st.WireFrames = snapVal(&merged, "vapro_wire_frames_total")
	st.SeqGaps = snapVal(&merged, "vapro_wire_seq_gaps_total")
	return st
}

func snapVal(snap *obs.Snapshot, name string) float64 {
	if m := snap.Get(name); m != nil {
		return m.Value
	}
	return 0
}

// FleetStatusFromSnapshot builds the same stable status schema from a
// single endpoint's snapshot (what `vapro status -json` emits when it
// talks to a per-shard or tier endpoint rather than a fleet scraper).
// Per-shard rows come from the vapro_shard%d_* Func metrics when the
// endpoint is a sharded tier; a plain pool yields one synthetic row.
func FleetStatusFromSnapshot(snap *obs.Snapshot, rules []obs.HealthRule) FleetStatus {
	if rules == nil {
		rules = obs.DefaultHealthRules()
	}
	rep := obs.EvalHealth(rules, snap, nil)
	st := FleetStatus{
		Source:     "endpoint",
		State:      rep.State,
		Reasons:    rep.Reasons,
		Ranks:      snapVal(snap, "vapro_ranks"),
		Servers:    snapVal(snap, "vapro_servers"),
		WireFrames: snapVal(snap, "vapro_wire_frames_total"),
		SeqGaps:    snapVal(snap, "vapro_wire_seq_gaps_total"),
	}
	shards := int(snapVal(snap, "vapro_shards"))
	if shards <= 0 {
		st.Shards = []ShardStatus{{
			Shard:         0,
			State:         rep.State,
			ResidentRanks: st.Ranks,
			IntakeStaged:  snapVal(snap, "vapro_intake_staged"),
			SeqGaps:       st.SeqGaps,
		}}
		return st
	}
	for i := 0; i < shards; i++ {
		row := ShardStatus{Shard: i, State: obs.HealthOK}
		if m := snap.Get(fmt.Sprintf("vapro_shard%d_resident_ranks", i)); m != nil {
			row.ResidentRanks = m.Value
			row.IntakeStaged = snapVal(snap, fmt.Sprintf("vapro_shard%d_intake_staged", i))
			row.SeqGaps = snapVal(snap, fmt.Sprintf("vapro_shard%d_seq_gaps", i))
		} else {
			// The row the tier promised is missing from the scrape: say so
			// instead of dropping the shard.
			row.State = obs.HealthUnreachable
			row.Error = "no data"
		}
		st.Shards = append(st.Shards, row)
	}
	return st
}

// Handler serves the merged fleet view: the merged registry at every
// path except /fleet, which serves the FleetStatus JSON.
func (f *FleetScraper) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.SnapshotHandler(f.Merged))
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, _ *http.Request) {
		st := f.Status()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(&st)
	})
	return mux
}

// Run scrapes on the configured interval until stop closes.
func (f *FleetScraper) Run(stop <-chan struct{}) {
	tick := time.NewTicker(f.opt.Interval)
	defer tick.Stop()
	f.ScrapeOnce()
	for {
		select {
		case <-tick.C:
			f.ScrapeOnce()
		case <-stop:
			return
		}
	}
}
