package detect

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/diagnose"
	"vapro/internal/obs"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// momentFactors is the monitor's stage-2 OS factor set: full rank on
// independent counters (the stage-3 leaves are exact summands of their
// parents).
var momentFactors = []diagnose.Factor{diagnose.Suspension, diagnose.PageFault, diagnose.ContextSwitch, diagnose.Signal}

// momentGraph appends computation fragments carrying OS-noise counters
// to an STG: elapsed grows with the counters, so the §4.2 fit has
// signal.
type momentGraph struct {
	g     *stg.Graph
	rng   *rand.Rand
	clock int64
}

func (m *momentGraph) add(from, to uint64, norms []uint64, zeroElapsed bool) {
	batch := make([]trace.Fragment, 0, len(norms))
	for _, nv := range norms {
		susp := m.rng.Int63n(50_000)
		soft, hard := uint64(m.rng.Intn(30)), uint64(m.rng.Intn(5))
		vol, invol, sig := uint64(m.rng.Intn(20)), uint64(m.rng.Intn(8)), uint64(m.rng.Intn(3))
		el := 1_000_000 + susp + int64(soft)*1_000 + int64(hard)*20_000 +
			int64(vol+invol)*2_000 + int64(sig)*3_000 + m.rng.Int63n(10_000)
		if zeroElapsed {
			el = 0
		}
		batch = append(batch, trace.Fragment{
			Rank: int(m.rng.Intn(4)), Kind: trace.Comp, From: from, State: to,
			Start: m.clock, Elapsed: el,
			Counters: trace.CountersView{
				TotIns: nv, SuspensionNS: susp, SoftPF: soft, HardPF: hard,
				VolCS: vol, InvolCS: invol, Signals: sig,
			},
		})
		m.clock += max(el, 1)
	}
	m.g.AddBatch(batch)
}

func momentsClose(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// requireSameQuant requires the moment-form quantification to match the
// batch fit within 1e-6, with the same decisions.
func requireSameQuant(t *testing.T, what string, got, want *diagnose.OLSQuant) {
	t.Helper()
	if !reflect.DeepEqual(got.Dropped, want.Dropped) || len(got.PValue) != len(want.PValue) ||
		len(got.TimePerUnit) != len(want.TimePerUnit) {
		t.Fatalf("%s: moment quantification %+v, batch %+v", what, got, want)
	}
	if !momentsClose(got.R2, want.R2) || !momentsClose(got.FGStat, want.FGStat) || !momentsClose(got.FGPValue, want.FGPValue) {
		t.Fatalf("%s: fit differs: %+v vs %+v", what, got, want)
	}
	for f, w := range want.PValue {
		if g, ok := got.PValue[f]; !ok || !momentsClose(g, w) {
			t.Fatalf("%s: PValue[%v] %v, batch %v", what, f, g, w)
		}
	}
	for f, w := range want.TimePerUnit {
		if g, ok := got.TimePerUnit[f]; !ok || !momentsClose(g, w) {
			t.Fatalf("%s: TimePerUnit[%v] %v, batch %v", what, f, g, w)
		}
	}
}

// TestStoreMomentsTrackFixedClusters drives a seeded append schedule
// whose clusters grow in place (a stable ballast), re-form from other
// clusters' members (a head whose greedy cut keeps moving down), and
// grow from Small into Fixed (lone seeds joined later), beside an edge
// whose one Fixed cluster never emits (no positive elapsed). After every
// pass each Fixed edge cluster must carry moments over exactly its
// members, and their quantification must match QuantifyOLS folding
// the same members afresh, in time order. Moments never touch a Result; preps built
// under DisableIncremental, for another factor set or at another
// generation serve none.
func TestStoreMomentsTrackFixedClusters(t *testing.T) {
	mg := &momentGraph{g: stg.New(), rng: rand.New(rand.NewSource(35))}
	a := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	a.SetMetrics(met)
	a.SetOLSFactors(momentFactors)
	plain := NewAnalyzer() // no factor set: the results must not move
	opt := DefaultOptions()
	opt.Window = 5 * sim.Millisecond
	opt.Cluster.MinFragments = 3

	// A second cache, stepped through the same generations, classifies
	// the schedule's cluster shapes from its Deltas.
	deltas := cluster.NewCache()
	prev := map[cluster.Key]cluster.Result{}
	var grown, reformed, intoFixed int
	classify := func() {
		for _, e := range mg.g.Edges() {
			key := cluster.EdgeKey(e.Key)
			cl, d := deltas.RunInc(key, e.Gen, e.Log(), opt.Cluster)
			old, seen := prev[key]
			prev[key] = cl
			if !seen || d.Full {
				continue
			}
			for _, r := range d.Born {
				if cl.Clusters[cl.Index(r.Label)].Fixed {
					reformed++
				}
			}
			for _, r := range d.Grown {
				switch {
				case !cl.Clusters[cl.Index(r.Label)].Fixed:
				case !old.Clusters[old.Index(r.Label)].Fixed:
					intoFixed++
				default:
					grown++
				}
			}
		}
	}

	check := func(step string) {
		t.Helper()
		classify()
		if got, want := a.Run(mg.g, 4, opt), plain.Run(mg.g, 4, opt); !equalResults(got, want) {
			t.Fatalf("%s: moments changed the detection result", step)
		}
		for _, e := range mg.g.Edges() {
			key := cluster.EdgeKey(e.Key)
			ms, ok := a.ClusterMoments(key, e.Gen, momentFactors)
			if !ok {
				t.Fatalf("%s: edge %v serves no moments at its generation", step, e.Key)
			}
			if _, ok := a.ClusterMoments(key, e.Gen, momentFactors[:2]); ok {
				t.Fatalf("%s: edge %v served moments for another factor set", step, e.Key)
			}
			if _, ok := a.ClusterMoments(key, stg.Gen{Epoch: e.Gen.Epoch, Count: e.Gen.Count - 1}, momentFactors); ok {
				t.Fatalf("%s: edge %v served moments at a stale generation", step, e.Key)
			}
			cl := a.Cache().Run(key, e.Gen, e.Log(), opt.Cluster)
			var members [][]trace.Fragment
			j := 0
			for ci, group := range cl.Groups() {
				if !cl.Clusters[ci].Fixed {
					continue
				}
				if j >= len(ms) {
					t.Fatalf("%s: edge %v cluster %d: no moments cover its %d members", step, e.Key, ci, cl.Clusters[ci].Size)
				}
				members = append(members, e.Log().PickByTime(group))
				requireSameQuant(t, fmt.Sprintf("%s: edge %v cluster %d", step, e.Key, ci),
					diagnose.QuantifyMoments(ms[j:j+1], momentFactors), diagnose.QuantifyOLS(members[j:], momentFactors))
				j++
			}
			if j != len(ms) {
				t.Fatalf("%s: edge %v serves %d moment sets for %d Fixed clusters", step, e.Key, len(ms), j)
			}
			requireSameQuant(t, step, diagnose.QuantifyMoments(ms, momentFactors), diagnose.QuantifyOLS(members, momentFactors))
		}
		for _, v := range mg.g.Vertices() {
			if _, ok := a.ClusterMoments(cluster.VertexKey(v.Key), v.Gen, momentFactors); ok {
				t.Fatalf("%s: vertex %v served moments", step, v.Key)
			}
		}
	}

	ballast := make([]uint64, 60)
	for i := range ballast {
		ballast[i] = 50_000_000
	}
	head := []uint64{2_000_000, 2_000_000, 2_000_000, 2_000_000, 2_090_000, 2_090_000, 2_090_000, 2_090_000}
	mg.add(1, 2, append(append([]uint64{}, ballast...), head...), false)
	mg.add(5, 6, []uint64{7_000_000, 7_000_000, 7_000_000}, true)
	check("cold")

	norm := uint64(1_950_000)
	for b := 0; b < 24; b++ {
		mg.add(1, 2, ballast[:4+mg.rng.Intn(8)], false)
		mg.add(1, 2, []uint64{norm, norm, norm}, false)
		norm -= 45_000
		// A lone seed, joined by two more members a burst later.
		seed := uint64(10_000_000 + 1_000_000*(b%6)*(b%6+7))
		mg.add(3, 4, []uint64{seed, 30_000_000, 30_000_000}, false)
		if b%3 == 2 {
			mg.add(5, 6, []uint64{7_000_000}, true)
		}
		check("burst")
		if b%4 == 3 {
			mg.add(3, 4, []uint64{seed, seed}, false)
			check("join")
		}
	}
	if grown == 0 || reformed == 0 || intoFixed == 0 {
		t.Fatalf("schedule shapes: %d grown, %d re-formed, %d grown into Fixed; want each", grown, reformed, intoFixed)
	}
	if met.OLSRank1Updates.Load() == 0 || met.OLSRefactors.Load() == 0 {
		t.Fatalf("moment counters: %d rank-1, %d refactors", met.OLSRank1Updates.Load(), met.OLSRefactors.Load())
	}

	// A stale generation: the graph grew, no pass has seen it.
	mg.add(1, 2, ballast[:4], false)
	e := mg.g.Edge(trace.EdgeKey{From: 1, To: 2})
	if _, ok := a.ClusterMoments(cluster.EdgeKey(e.Key), e.Gen, momentFactors); ok {
		t.Fatal("moments served for a generation no pass analyzed")
	}
	// The oracle keeps none; the store's next pass rebuilds them.
	bopt := opt
	bopt.DisableIncremental = true
	a.Run(mg.g, 4, bopt)
	if _, ok := a.ClusterMoments(cluster.EdgeKey(e.Key), e.Gen, momentFactors); ok {
		t.Fatal("moments served from a DisableIncremental prep")
	}
	check("store again")
	// An analyzer folding another factor set serves nothing for this one.
	other := NewAnalyzer()
	other.SetOLSFactors(momentFactors[:2])
	other.Run(mg.g, 4, opt)
	if _, ok := other.ClusterMoments(cluster.EdgeKey(e.Key), e.Gen, momentFactors); ok {
		t.Fatal("moments served across factor sets")
	}
	if _, ok := plain.ClusterMoments(cluster.EdgeKey(e.Key), e.Gen, momentFactors); ok {
		t.Fatal("an analyzer with no factor set served moments")
	}
}
