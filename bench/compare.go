package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// verdict classifies one workload × metric pair of a comparison.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	within     verdict = "within"
	unresolved verdict = "unresolved"
	info       verdict = "" // per-layer metrics carry no bound
)

// judge compares B's repeats with A's for one metric. The change is
// signed so that positive is worse. A change beyond the bound counts
// only when A's own spread (interquartile range over its median) is
// within the bound, or when every run of B lies on one side of every
// run of A; otherwise the pair is unresolved.
func judge(d metricDef, a, b []float64) (v verdict, change, spread float64) {
	_, am, _ := quartiles(a)
	_, bm, _ := quartiles(b)
	if am == 0 {
		if bm == 0 {
			return within, 0, 0
		}
		return unresolved, 0, 0
	}
	change = (bm - am) / am
	if d.Better == "higher" {
		change = -change
	}
	q1, _, q3 := quartiles(a)
	spread = (q3 - q1) / am
	if spread < 0 {
		spread = -spread
	}
	beyond := change > d.Bound || change < -d.Bound
	if !beyond {
		return within, change, spread
	}
	if spread > d.Bound && !separated(a, b) {
		return unresolved, change, spread
	}
	if change > 0 {
		return worse, change, spread
	}
	return better, change, spread
}

// separated reports whether every value of one side lies strictly
// beyond every value of the other.
func separated(a, b []float64) bool {
	as, bs := sorted(a), sorted(b)
	return as[len(as)-1] < bs[0] || bs[len(bs)-1] < as[0]
}

// collect gathers, per workload and metric, the values of every repeat.
// End-to-end metrics are taken from untraced results only.
func collect(f *benchFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, rep := range f.Repeats {
		for _, r := range rep {
			m := out[r.Workload]
			if m == nil {
				m = map[string][]float64{}
				out[r.Workload] = m
			}
			for name, v := range r.Metrics {
				_, e2e := e2eDef(name)
				if e2e && r.Traced {
					continue
				}
				m[name] = append(m[name], v)
			}
		}
	}
	return out
}

func e2eDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func readBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload × metric and returns the
// process exit code: 1 if any end-to-end metric is worse.
func compareFiles(pathA, pathB string) int {
	a, errA := readBench(pathA)
	b, errB := readBench(pathB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return compareBench(a, b)
}

func compareBench(a, b *benchFile) int {
	fmt.Printf("A: commit %s seed %d, %d repeats   B: commit %s seed %d, %d repeats\n",
		a.Env.Commit, a.Env.Seed, len(a.Repeats), b.Env.Commit, b.Env.Seed, len(b.Repeats))
	if a.Env.Seed != b.Env.Seed || a.Env.Seconds != b.Env.Seconds || a.Env.Scale != b.Env.Scale {
		fmt.Println("note: the two files were not produced with the same seed, seconds and scale")
	}
	av, bv := collect(a), collect(b)
	code := 0
	for _, sp := range specs {
		am, bm := av[sp.name], bv[sp.name]
		if am == nil || bm == nil {
			continue
		}
		fmt.Printf("== %s\n", sp.name)
		for _, d := range endToEnd {
			if len(am[d.Name]) == 0 || len(bm[d.Name]) == 0 {
				fmt.Printf("   %-42s missing on one side\n", d.Name)
				code = 1
				continue
			}
			v, change, spread := judge(d, am[d.Name], bm[d.Name])
			_, amed, _ := quartiles(am[d.Name])
			_, bmed, _ := quartiles(bm[d.Name])
			fmt.Printf("   %-42s %12.6g -> %-12.6g %+7.2f%% (bound %g%%, A spread %.2f%%) %s\n",
				d.Name, amed, bmed, 100*change, 100*d.Bound, 100*spread, v)
			if v == worse {
				code = 1
			}
		}
		var names []string
		for name := range am {
			if _, e2e := e2eDef(name); !e2e && len(bm[name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			_, amed, _ := quartiles(am[name])
			_, bmed, _ := quartiles(bm[name])
			if amed == bmed {
				continue
			}
			note := ""
			for _, exact := range exactMetrics {
				if name == exact && a.Env.Seed == b.Env.Seed {
					note = "exact count changed"
				}
			}
			rel := 0.0
			if amed != 0 {
				rel = 100 * (bmed - amed) / amed
			}
			fmt.Printf("   %-42s %12.6g -> %-12.6g %+7.2f%% %s\n", name, amed, bmed, rel, note)
		}
	}
	return code
}
