package diagnose

import (
	"fmt"
	"sort"
	"strings"

	"vapro/internal/sim"
	"vapro/internal/trace"
)

// Options configures the progressive diagnosis.
type Options struct {
	// AbnormalRatio k_a: fragments slower than k_a times the fastest
	// member of their cluster are abnormal (paper: 1.2).
	AbnormalRatio float64
	// MajorThreshold: factors contributing more than this fraction of
	// the overall variance are refined to the next stage (paper: 0.25).
	MajorThreshold float64
	// MaxStage bounds the descent (3 covers the full model).
	MaxStage int
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{AbnormalRatio: 1.2, MajorThreshold: 0.25, MaxStage: 3}
}

// FactorReport is one node of the diagnosis output tree.
type FactorReport struct {
	Factor Factor
	// ContributionNS is the factor's summed excess time over the
	// normal-fragment reference, across all abnormal fragments.
	ContributionNS float64
	// ImpactFrac is ContributionNS over the total slowdown.
	ImpactFrac float64
	// DurationNS is the total elapsed time of abnormal fragments whose
	// major factor includes this one.
	DurationNS int64
	// DurationFrac is DurationNS over the total analyzed time.
	DurationFrac float64
	// PValue is the OLS significance when the statistical method
	// quantified this factor (NaN otherwise).
	PValue float64
	// Method records how the time was obtained: "formula" or "ols".
	Method string
	// Major marks factors selected for refinement.
	Major    bool
	Children []FactorReport
}

// Report is the outcome of a progressive diagnosis.
type Report struct {
	// TotalSlowdownNS is Σ over abnormal fragments of (elapsed − cluster
	// reference elapsed).
	TotalSlowdownNS float64
	AnalyzedNS      int64
	AbnormalFrags   int
	NormalFrags     int
	// Stages is how many client→server collection periods the
	// progressive descent consumed (one per stage refined).
	Stages int
	// GroupsArmed is the union of counter groups that had to be armed
	// across all stages.
	GroupsArmed sim.Group
	Factors     []FactorReport
	// OLS carries the statistical quantification details (§4.2, §6.4),
	// when enabled and applicable.
	OLS *OLSQuant
}

// Diagnoser runs the progressive method over fixed-workload clusters.
// Each stage reads the clusters with a particular counter-group set
// armed, as one client→server collection period would report them.
type Diagnoser struct {
	opt Options
}

// New returns a Diagnoser.
func New(opt Options) *Diagnoser {
	if opt.AbnormalRatio <= 1 {
		opt.AbnormalRatio = 1.2
	}
	if opt.MajorThreshold <= 0 {
		opt.MajorThreshold = 0.25
	}
	if opt.MaxStage <= 0 {
		opt.MaxStage = 3
	}
	return &Diagnoser{opt: opt}
}

// collect returns copies of the clusters with counters masked to the
// armed groups: what one collection period with those groups armed
// reports (in the real tool this costs one reporting period; here the
// recorded data is replayed).
func collect(clusters [][]trace.Fragment, armed sim.Group) [][]trace.Fragment {
	out := make([][]trace.Fragment, len(clusters))
	for i, frags := range clusters {
		cp := make([]trace.Fragment, len(frags))
		copy(cp, frags)
		for j := range cp {
			cp[j].Counters = maskView(cp[j].Counters, armed)
		}
		out[i] = cp
	}
	return out
}

// maskView zeroes counters outside the armed groups. The base fields
// are always retained: TOT_INS and cycles drive clustering and
// detection at every stage.
func maskView(c trace.CountersView, armed sim.Group) trace.CountersView {
	out := trace.CountersView{TotIns: c.TotIns, Cycles: c.Cycles}
	if armed.Has(sim.GroupTopdownL1) {
		out.SlotsFrontend = c.SlotsFrontend
		out.SlotsBadSpec = c.SlotsBadSpec
		out.SlotsRetiring = c.SlotsRetiring
		out.SlotsBackend = c.SlotsBackend
		out.SuspensionNS = c.SuspensionNS
	}
	if armed.Has(sim.GroupBackend) {
		out.SlotsCore = c.SlotsCore
		out.SlotsMemory = c.SlotsMemory
	}
	if armed.Has(sim.GroupMemory) {
		out.SlotsL1 = c.SlotsL1
		out.SlotsL2 = c.SlotsL2
		out.SlotsL3 = c.SlotsL3
		out.SlotsDRAM = c.SlotsDRAM
	}
	if armed.Has(sim.GroupOS) {
		out.SuspensionNS = c.SuspensionNS
		out.SoftPF = c.SoftPF
		out.HardPF = c.HardPF
		out.VolCS = c.VolCS
		out.InvolCS = c.InvolCS
		out.Signals = c.Signals
	}
	if armed.Has(sim.GroupExtra) {
		out.LoadStores = c.LoadStores
		out.CacheMisses = c.CacheMisses
		out.L2MissStall = c.L2MissStall
	}
	return out
}

// split partitions each cluster into normal and abnormal fragments by
// the k_a rule and returns the flattened sets plus the per-fragment
// reference elapsed (its cluster's mean normal elapsed).
type splitData struct {
	abnormal []trace.Fragment
	// refElapsed aligns with abnormal: the mean elapsed of the normal
	// fragments of the same cluster.
	refElapsed []float64
	// refMetric[f] aligns with abnormal: cluster-mean normal metric.
	refMetric  map[Factor][]float64
	normalN    int
	analyzedNS int64
}

func (d *Diagnoser) split(clusters [][]trace.Fragment, factors []Factor) *splitData {
	sd := &splitData{refMetric: make(map[Factor][]float64)}
	for _, frags := range clusters {
		if len(frags) == 0 {
			continue
		}
		fastest := frags[0].Elapsed
		for i := range frags {
			sd.analyzedNS += frags[i].Elapsed
			if frags[i].Elapsed < fastest {
				fastest = frags[i].Elapsed
			}
		}
		cut := float64(fastest) * d.opt.AbnormalRatio
		var normals, abnormals []int
		for i := range frags {
			if float64(frags[i].Elapsed) >= cut {
				abnormals = append(abnormals, i)
			} else {
				normals = append(normals, i)
			}
		}
		if len(normals) == 0 || len(abnormals) == 0 {
			sd.normalN += len(normals)
			continue
		}
		sd.normalN += len(normals)
		// Reference values from normal fragments.
		refE := 0.0
		refM := make(map[Factor]float64, len(factors))
		for _, i := range normals {
			refE += float64(frags[i].Elapsed)
			for _, f := range factors {
				refM[f] += Metric(f, &frags[i])
			}
		}
		n := float64(len(normals))
		refE /= n
		for _, i := range abnormals {
			sd.abnormal = append(sd.abnormal, frags[i])
			sd.refElapsed = append(sd.refElapsed, refE)
			for _, f := range factors {
				sd.refMetric[f] = append(sd.refMetric[f], refM[f]/n)
			}
		}
	}
	return sd
}

// allFactors returns every factor reachable within MaxStage.
func (d *Diagnoser) allFactors() []Factor {
	var out []Factor
	for f := Factor(0); f < numFactors; f++ {
		if f.Stage() <= d.opt.MaxStage {
			out = append(out, f)
		}
	}
	return out
}

// Run performs the progressive diagnosis over fixed-workload clusters.
// moments, when given, holds one warm ClusterMoments per cluster (nil
// entries allowed) for the §4.2 quantification; a cluster whose entry
// is nil or was folded over another factor set is folded from its
// stage-1 rows.
func (d *Diagnoser) Run(clusters [][]trace.Fragment, moments []*ClusterMoments) *Report {
	rep := &Report{GroupsArmed: sim.GroupBase}

	// Stage 1: arm the top-down level-1 group plus OS counters (both
	// are cheap software reads) and compute S1 contributions.
	armed := sim.GroupBase | sim.GroupTopdownL1 | sim.GroupOS
	rep.GroupsArmed |= armed
	rep.Stages = 1
	stage1 := collect(clusters, armed)

	factors := d.allFactors()
	sd := d.split(stage1, factors)
	rep.AbnormalFrags = len(sd.abnormal)
	rep.NormalFrags = sd.normalN
	rep.AnalyzedNS = sd.analyzedNS
	if len(sd.abnormal) == 0 {
		return rep
	}
	for i := range sd.abnormal {
		slow := float64(sd.abnormal[i].Elapsed) - sd.refElapsed[i]
		if slow > 0 {
			rep.TotalSlowdownNS += slow
		}
	}
	if rep.TotalSlowdownNS == 0 {
		return rep
	}

	// OLS quantification for unquantifiable factors, fitted on the
	// full cluster populations (normal + abnormal) as §4.2 does.
	osFactors := OSFactors()
	kept := osFactors[:0:0]
	for _, f := range osFactors {
		if f.Stage() <= d.opt.MaxStage {
			kept = append(kept, f)
		}
	}
	rep.OLS = QuantifyMoments(momentsOf(stage1, moments, kept), kept)

	// contribution computes a factor's excess over reference summed
	// across abnormal fragments, in ns where possible.
	contribution := func(f Factor, sd *splitData) (ns float64, method string) {
		method = "formula"
		for i := range sd.abnormal {
			frag := &sd.abnormal[i]
			var cur float64
			if f.Quantifiable() {
				cur, _ = TimeNS(f, frag)
				// Reference in the same unit: scale ref metric (which
				// is the mean formula time of normals).
			} else if rep.OLS != nil {
				if est, ok := rep.OLS.EstimatedTimeNS(f, frag); ok {
					cur = est
					method = "ols"
				} else {
					continue
				}
			} else {
				continue
			}
			ref := sd.refMetric[f][i]
			if !f.Quantifiable() && rep.OLS != nil {
				if tpu, ok := rep.OLS.TimePerUnit[f]; ok {
					ref *= tpu
				}
			}
			if excess := cur - ref; excess > 0 {
				ns += excess
			}
		}
		return ns, method
	}

	// Progressive descent: start with S1, refine majors stage by stage.
	var build func(fs []Factor, stage int) []FactorReport
	build = func(fs []Factor, stage int) []FactorReport {
		var out []FactorReport
		for _, f := range fs {
			ns, method := contribution(f, sd)
			fr := FactorReport{
				Factor:         f,
				ContributionNS: ns,
				ImpactFrac:     ns / rep.TotalSlowdownNS,
				Method:         method,
			}
			if rep.OLS != nil {
				if p, ok := rep.OLS.PValue[f]; ok {
					fr.PValue = p
				} else {
					fr.PValue = -1
				}
			} else {
				fr.PValue = -1
			}
			if fr.ImpactFrac > d.opt.MajorThreshold && stage < d.opt.MaxStage {
				kids := f.Children()
				if len(kids) > 0 {
					fr.Major = true
					// Refining costs one more collection period with
					// the children's counter group armed.
					g := kids[0].RequiredGroup()
					if !rep.GroupsArmed.Has(g) {
						rep.GroupsArmed |= g
						rep.Stages++
						// Re-collect with the wider group set; the
						// replayed data now carries the new counters.
						sd = d.split(collect(clusters, rep.GroupsArmed), factors)
					}
					fr.Children = build(kids, stage+1)
				}
			}
			out = append(out, fr)
		}
		sort.SliceStable(out, func(i, j int) bool {
			return out[i].ContributionNS > out[j].ContributionNS
		})
		return out
	}
	rep.Factors = build(StageOne(), 1)

	// Duration: time of abnormal fragments whose largest-contribution
	// leaf factor matches.
	d.assignDurations(rep, sd)
	return rep
}

// assignDurations computes, per reported factor, the total time of
// abnormal fragments for which it is the dominant (major) factor; S2/S3
// factors receive a contribution-weighted share of their parent's
// duration.
func (d *Diagnoser) assignDurations(rep *Report, sd *splitData) {
	// Dominant S1 factor per abnormal fragment.
	durOf := make(map[Factor]int64)
	for i := range sd.abnormal {
		bestF, bestV := Factor(-1), 0.0
		for _, f := range StageOne() {
			if !f.Quantifiable() {
				continue
			}
			cur, _ := TimeNS(f, &sd.abnormal[i])
			if ex := cur - sd.refMetric[f][i]; ex > bestV {
				bestF, bestV = f, ex
			}
		}
		if bestF >= 0 {
			durOf[bestF] += sd.abnormal[i].Elapsed
		}
	}
	var prop func(frs []FactorReport, parentDur int64)
	prop = func(frs []FactorReport, parentDur int64) {
		var sum float64
		for i := range frs {
			sum += frs[i].ContributionNS
		}
		for i := range frs {
			fr := &frs[i]
			if fr.Factor.Stage() == 1 {
				fr.DurationNS = durOf[fr.Factor]
			} else if sum > 0 {
				fr.DurationNS = int64(float64(parentDur) * fr.ContributionNS / sum)
			}
			if rep.AnalyzedNS > 0 {
				fr.DurationFrac = float64(fr.DurationNS) / float64(rep.AnalyzedNS)
			}
			prop(fr.Children, fr.DurationNS)
		}
	}
	prop(rep.Factors, rep.AnalyzedNS)
}

// String renders the report as an indented factor tree.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diagnosis: slowdown %.3fms over %d abnormal / %d normal fragments, %d stage(s)\n",
		r.TotalSlowdownNS/1e6, r.AbnormalFrags, r.NormalFrags, r.Stages)
	var walk func(frs []FactorReport, depth int)
	walk = func(frs []FactorReport, depth int) {
		for i := range frs {
			f := &frs[i]
			fmt.Fprintf(&b, "%s%-18s impact %5.1f%%  duration %5.1f%%",
				strings.Repeat("  ", depth+1), f.Factor, 100*f.ImpactFrac, 100*f.DurationFrac)
			if f.PValue >= 0 {
				fmt.Fprintf(&b, "  p=%.4g", f.PValue)
			}
			if f.Major {
				b.WriteString("  [major]")
			}
			b.WriteByte('\n')
			walk(f.Children, depth+1)
		}
	}
	walk(r.Factors, 0)
	return b.String()
}

// Find returns the report node for factor f, searching the tree.
func (r *Report) Find(f Factor) *FactorReport {
	var find func(frs []FactorReport) *FactorReport
	find = func(frs []FactorReport) *FactorReport {
		for i := range frs {
			if frs[i].Factor == f {
				return &frs[i]
			}
			if sub := find(frs[i].Children); sub != nil {
				return sub
			}
		}
		return nil
	}
	return find(r.Factors)
}
