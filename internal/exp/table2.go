package exp

import (
	"fmt"
	"io"

	"vapro/internal/apps"
	"vapro/internal/cluster"
	"vapro/internal/core"
	"vapro/internal/stats"
)

// Table2Row is one application's clustering-verification scores.
type Table2Row struct {
	App          string
	Fragments    int
	Completeness float64
	Homogeneity  float64
	VMeasure     float64
}

// Table2Result is the §6.3 verification of fixed-workload
// identification against ground-truth execution paths.
type Table2Result struct {
	Rows []Table2Row
}

func init() {
	register(Experiment{
		ID:    "table2",
		Title: "verification of fixed-workload identification: C/H/V scores (Table 2)",
		Run: func(w io.Writer, scale Scale) (any, error) {
			return Table2(w, scale), nil
		},
	})
}

// Table2 clusters the computation fragments of CG, FT, EP and PageRank
// at 16 ranks/threads and scores the clustering against the
// ground-truth workload labels (the §6.3 instrumentation of all loops
// and branches in the hot spots, which the simulator records exactly).
func Table2(w io.Writer, scale Scale) *Table2Result {
	res := &Table2Result{}
	for _, name := range []string{"CG", "FT", "EP", "PageRank"} {
		app, err := apps.New(name)
		if err != nil {
			panic(err)
		}
		opt := core.DefaultOptions()
		opt.Ranks = 16
		run := core.RunTraced(app, opt)

		// Collect (truth, predicted) label pairs over computation
		// fragments. Predicted labels must be globally unique per
		// (edge, cluster); truth labels are the exact workload hashes.
		// The paper instruments the hot spots (>80% of execution
		// time): only repeatedly executed edges participate, and
		// truth labels are per snippet (edge-local), matching the
		// execution-path recording granularity.
		var truth, pred []int
		nFrags := 0
		clusterBase := 0
		truthBase := 0
		for _, e := range run.Graph.Edges() {
			if e.Log().Len() < 5*run.Ranks {
				continue // cold path, not instrumented
			}
			cl := cluster.Run(e.Log(), opt.Collector.Detect.Cluster)
			truthID := map[uint64]int{}
			frags := e.Log().Slice()
			for i := range frags {
				f := &frags[i]
				if f.Counters.TotIns == 0 || f.Truth == 0 {
					continue
				}
				id, ok := truthID[f.Truth]
				if !ok {
					id = truthBase + len(truthID)
					truthID[f.Truth] = id
				}
				truth = append(truth, id)
				pred = append(pred, clusterBase+cl.ClusterOf(i))
				nFrags++
			}
			clusterBase += len(cl.Clusters)
			truthBase += len(truthID)
		}
		h, c, v := stats.VMeasure(truth, pred)
		res.Rows = append(res.Rows, Table2Row{
			App:          name,
			Fragments:    nFrags,
			Completeness: c,
			Homogeneity:  h,
			VMeasure:     v,
		})
	}

	e, _ := Get("table2")
	header(w, e)
	fmt.Fprintf(w, "%-10s %10s %6s %6s %6s\n", "app", "#fragments", "C", "H", "V")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10s %10d %6.2f %6.2f %6.2f\n", r.App, r.Fragments, r.Completeness, r.Homogeneity, r.VMeasure)
	}
	fmt.Fprintln(w, "(paper: C=1.00 everywhere; H=1.00 except PageRank 0.74, whose near-equal")
	fmt.Fprintln(w, " partitions legitimately merge within the 5% tolerance)")
	return res
}
