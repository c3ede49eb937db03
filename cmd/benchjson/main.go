// benchjson converts `go test -bench` text output into a small JSON
// document so benchmark numbers can be tracked across PRs as build
// artifacts (BENCH_<pr>.json) instead of eyeballed from logs.
//
//	go test -bench ... -benchmem . | go run ./cmd/benchjson -out BENCH_5.json
//
// Only the standard testing-package line shape is parsed:
//
//	BenchmarkName-8  	     100	  11222333 ns/op	  4096 B/op	  12 allocs/op	  3.5 custom_unit
//
// The -N GOMAXPROCS suffix is stripped from the name. Unknown
// value/unit pairs (b.ReportMetric) are kept under "metrics".
//
// Repeated -assert flags turn the converter into the CI gate for
// recorded bounds:
//
//	-assert 'NameA<=1.5*NameB'             // ns/op ratio bound
//	-assert 'NameA<=1.5*NameB@ns_per_tick' // custom-metric ratio bound
//	-assert 'NameA<=1.2*NameB@B/op'        // B/op ratio bound (-benchmem)
//	-assert 'NameA@resident_B_per_frag<=62' // custom-metric ceiling
//	-assert 'NameA<=2e6'                    // ns/op ceiling
//
// Each assertion fails (nonzero exit, after the JSON is written) when a
// named benchmark or metric is missing or the bound does not hold.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type bench struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	mem         bool               // the line had B/op and allocs/op columns
}

type report struct {
	Benchmarks []bench `json:"benchmarks"`
}

// keepFastest collapses repeated lines of the same benchmark (as
// produced by -count=N) into the single fastest one. Minimum-of-runs is
// the standard noise-robust estimator on shared machines: external
// interference only ever adds time, so the fastest run is the closest
// observation of the code's own cost. First-seen order is preserved.
func keepFastest(in []bench) []bench {
	idx := make(map[string]int)
	out := in[:0]
	for _, b := range in {
		if i, ok := idx[b.Name]; ok {
			if b.NsPerOp < out[i].NsPerOp {
				out[i] = b
			}
			continue
		}
		idx[b.Name] = len(out)
		out = append(out, b)
	}
	return out
}

// assertion is one parsed bound: `A<=FACTOR*B[@metric]`, A against a
// multiple of B, or `A[@metric]<=VALUE`, A against a ceiling (b empty).
type assertion struct {
	a, b   string
	factor float64 // the multiple of B, or the ceiling
	metric string  // empty = ns/op
}

const assertionForms = "A<=FACTOR*B[@metric] or A[@metric]<=VALUE"

func parseAssertion(s string) (assertion, error) {
	var as assertion
	lhs, rhs, ok := strings.Cut(s, "<=")
	if !ok || lhs == "" {
		return as, fmt.Errorf("benchjson: assertion %q: want %s", s, assertionForms)
	}
	fac, b, ratio := strings.Cut(rhs, "*")
	if ratio {
		as.a = lhs
		as.b, as.metric, _ = strings.Cut(b, "@")
		if as.b == "" {
			return as, fmt.Errorf("benchjson: assertion %q: want %s", s, assertionForms)
		}
	} else {
		as.a, as.metric, _ = strings.Cut(lhs, "@")
	}
	f, err := strconv.ParseFloat(fac, 64)
	if err != nil || f <= 0 {
		return as, fmt.Errorf("benchjson: assertion %q: bad bound %q", s, fac)
	}
	as.factor = f
	return as, nil
}

// check evaluates a against rep: whether it holds, and the line that
// says so.
func (a assertion) check(rep *report) (bool, string) {
	unit := "ns/op"
	if a.metric != "" {
		unit = a.metric
	}
	av, ok := value(rep, a.a, a.metric)
	if !ok {
		return false, fmt.Sprintf("assert: %s has no %s", a.a, unit)
	}
	bound, of := a.factor, fmt.Sprintf("%g", a.factor)
	if a.b != "" {
		bv, ok := value(rep, a.b, a.metric)
		if !ok {
			return false, fmt.Sprintf("assert: %s has no %s", a.b, unit)
		}
		bound, of = a.factor*bv, fmt.Sprintf("%.2f * %s (= %.0f %s)", a.factor, a.b, a.factor*bv, unit)
	}
	if av > bound {
		return false, fmt.Sprintf("assert FAILED: %s = %.0f %s > %s", a.a, av, unit, of)
	}
	return true, fmt.Sprintf("assert ok: %s = %.0f %s <= %s", a.a, av, unit, of)
}

// value resolves an assertion side: the benchmark's ns/op, its B/op or
// allocs/op column (present only under -benchmem), or its named
// b.ReportMetric value. ok=false when that is absent.
func value(rep *report, name, metric string) (float64, bool) {
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		if b.Name != name {
			continue
		}
		switch metric {
		case "":
			return b.NsPerOp, true
		case "B/op":
			return b.BytesPerOp, b.mem
		case "allocs/op":
			return b.AllocsPerOp, b.mem
		}
		v, ok := b.Metrics[metric]
		return v, ok
	}
	return 0, false
}

// parseLine parses one `go test -bench` result line; ok=false for any
// other line.
func parseLine(line string) (b bench, ok bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return b, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return b, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return b, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b = bench{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
			b.mem = true
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[fields[i+1]] = v
		}
	}
	return b, true
}

type assertList []assertion

func (l *assertList) String() string { return fmt.Sprint(*l) }

func (l *assertList) Set(s string) error {
	a, err := parseAssertion(s)
	if err != nil {
		return err
	}
	*l = append(*l, a)
	return nil
}

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout")
	min := flag.Bool("min", false, "with -count runs, keep only each benchmark's fastest line (noise-robust estimator)")
	var asserts assertList
	flag.Var(&asserts, "assert", "bound to enforce, "+assertionForms+"; repeatable, nonzero exit on violation")
	flag.Parse()

	var rep report
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if *min {
		rep.Benchmarks = keepFastest(rep.Benchmarks)
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	failed := false
	for _, a := range asserts {
		ok, msg := a.check(&rep)
		fmt.Fprintln(os.Stderr, "benchjson: "+msg)
		failed = failed || !ok
	}
	if failed {
		os.Exit(1)
	}
}
