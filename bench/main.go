// Command bench is the repository's end-to-end benchmark: it boots the
// real serving stack in-process over loopback TCP, drives it through
// real ResilientClients from a seeded generator, checks the analysis
// against a cold reference, and prints every metric declared in
// BENCHMARK.json by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// environment is recorded with every output file so two files can be
// told apart before their numbers are compared.
type environment struct {
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Scale      float64 `json:"scale"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOGC       string  `json:"gogc"`
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`
}

// benchFile is bench/out/BENCH.json: one entry per -repeat pass, each
// holding one result per workload and tracing mode.
type benchFile struct {
	Env     environment `json:"env"`
	Repeats [][]*result `json:"repeats"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	// `go run` does not stamp VCS data; ask git, but only in a checkout
	// that is one (the driver's is not).
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// benchmarkJSON renders the declaration the driver reads, from the
// tables in workload.go and metrics.go. BENCHMARK.json at the repository
// root is this output, and bench_test.go keeps it so.
func benchmarkJSON() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	decl := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workload    `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"},
		RunSeconds: nominalSeconds, EndToEnd: endToEnd,
	}
	for _, sp := range specs {
		decl.Workloads = append(decl.Workloads, workload{sp.name, sp.why})
	}
	for _, d := range perLayer {
		decl.PerLayer = append(decl.PerLayer, layerMetric{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(decl, "", "  ")
	return append(data, '\n'), err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult lists every metric the run produced, by name, with its
// unit, then the distributions behind the timing metrics.
func printResult(r *result) {
	fmt.Printf("== %s (seed %d, traced %v): correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Traced, r.Correct, r.Attempted, r.Failed)
	if r.Error != "" {
		fmt.Printf("   ERROR: %s\n", r.Error)
	}
	fmt.Printf("   input_sha256 %s\n", r.InputSHA)
	printDefs := func(title string, defs []metricDef) {
		fmt.Printf("   -- %s\n", title)
		for _, d := range defs {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Printf("   %-42s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	printDefs("end to end", endToEnd)
	printDefs("per layer", perLayer)
	names := make([]string, 0, len(r.Dists))
	for n := range r.Dists {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("   -- distributions\n")
	for _, n := range names {
		fmt.Printf("   %-42s %s\n", n, r.Dists[n])
	}
	for _, w := range r.Warnings {
		fmt.Printf("   WARNING: %s\n", w)
	}
}

// contractLine is the last line of standard output in single-workload
// mode: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func contractLine(r *result) (string, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok && !r.Traced && r.Error == "" {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		ms[d.Name] = mv{Value: v, Unit: d.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	return string(out), err
}

func main() {
	var (
		workload   = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all four)")
		seed       = flag.Uint64("seed", 1, "generator seed")
		seconds    = flag.Int("seconds", nominalSeconds, "measured seconds per run; the amount of work scales with it")
		traceFlag  = flag.Int("trace", 0, "1 adds the traced pass: span files and the per-layer ladder")
		scale      = flag.Float64("scale", 1, "multiply the amount of work (the tier-1 smoke uses 0.02)")
		repeat     = flag.Int("repeat", 1, "run the whole suite this many times into one output file")
		compare    = flag.Bool("compare", false, "compare two output files: -compare A.json B.json")
		describe   = flag.Bool("describe", false, "print the BENCHMARK.json this harness implements and exit")
		outDir     = flag.String("out", filepath.Join("bench", "out"), "directory for BENCH.json, trace files and scratch data")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()
	if *describe {
		data, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Print(string(data))
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || *scale <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds, -scale and -repeat must be positive")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	run := specs
	if *workload != "" {
		sp := specByName(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		run = []*spec{sp}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer func() { pprof.StopCPUProfile(); _ = f.Close() }()
	}

	cfg := config{
		seed: *seed, seconds: *seconds, scale: *scale, outDir: *outDir,
		logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}
	out := benchFile{Env: environment{
		Seed: *seed, Seconds: *seconds, Scale: *scale,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOGC: os.Getenv("GOGC"), Commit: commit(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}}
	if out.Env.GOGC == "" {
		out.Env.GOGC = "100"
	}

	// In suite mode the end-to-end numbers always come from an untraced
	// pass; -trace 1 adds the traced pass after it. In single-workload
	// mode the contract asks for exactly one of the two.
	passes := []bool{false}
	switch {
	case *workload != "" && *traceFlag != 0:
		passes = []bool{true}
	case *traceFlag != 0:
		passes = []bool{false, true}
	}
	failed := false
	var last *result
	for rep := 0; rep < *repeat; rep++ {
		var results []*result
		for _, sp := range run {
			for _, traced := range passes {
				cfg.trace = traced
				r := runWorkload(sp, cfg)
				printResult(r)
				results = append(results, r)
				last = r
				if !r.Correct {
					failed = true
				}
				debug.FreeOSMemory()
			}
		}
		out.Repeats = append(out.Repeats, results)
	}
	if err := writeJSON(filepath.Join(*outDir, "BENCH.json"), &out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		failed = true
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err == nil {
			err = pprof.WriteHeapProfile(f)
			_ = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	if *workload != "" {
		line, err := contractLine(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(line)
	}
	if failed {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}
