package main

import (
	"reflect"
	"testing"
)

func TestParseLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		want bench
		ok   bool
	}{
		{
			"BenchmarkMonitorTickWindow/plane=inc-2   \t      20\t  13778756 ns/op\t        59.37 resident_B_per_frag\t 5889687 B/op\t     909 allocs/op",
			bench{Name: "MonitorTickWindow/plane=inc", Iterations: 20, NsPerOp: 13778756, BytesPerOp: 5889687, AllocsPerOp: 909,
				Metrics: map[string]float64{"resident_B_per_frag": 59.37}, mem: true},
			true,
		},
		{
			// No GOMAXPROCS suffix, and a name whose last dash is not one.
			"BenchmarkShardedTickScale/shards=8/ranks=2048 1 45000000 ns/op 5.6e+06 ns_per_shard_tick",
			bench{Name: "ShardedTickScale/shards=8/ranks=2048", Iterations: 1, NsPerOp: 45e6,
				Metrics: map[string]float64{"ns_per_shard_tick": 5.6e6}},
			true,
		},
		{"BenchmarkFoo-8 \t 100 \t 12 ns/op", bench{Name: "Foo", Iterations: 100, NsPerOp: 12}, true},
		{"BenchmarkFoo-8 --- FAIL: boom", bench{}, false},
		{"BenchmarkFoo-8", bench{}, false},
		{"ok  \tvapro\t12.3s", bench{}, false},
		{"goos: linux", bench{}, false},
	} {
		got, ok := parseLine(tc.line)
		if ok != tc.ok || (ok && !reflect.DeepEqual(got, tc.want)) {
			t.Errorf("parseLine(%q) = %+v, %v; want %+v, %v", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}

func TestParseAssertion(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want assertion
	}{
		{"A<=1.5*B", assertion{a: "A", b: "B", factor: 1.5}},
		{"A/x=1<=0.05*B/y=2@ns_per_tick", assertion{a: "A/x=1", b: "B/y=2", factor: 0.05, metric: "ns_per_tick"}},
		{"A/x=1@resident_B_per_frag<=62.5", assertion{a: "A/x=1", factor: 62.5, metric: "resident_B_per_frag"}},
		{"A<=2e6", assertion{a: "A", factor: 2e6}},
	} {
		got, err := parseAssertion(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseAssertion(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "A", "A<B", "<=1.5*B", "A<=x*B", "A<=0*B", "A<=1.5*", "A<=1.5*@m", "A@m<=", "A@m<=-3", "A@m<=lots"} {
		if a, err := parseAssertion(bad); err == nil {
			t.Errorf("parseAssertion(%q) = %+v; want an error", bad, a)
		}
	}
}

func TestAssertionCheck(t *testing.T) {
	rep := &report{Benchmarks: []bench{
		{Name: "Inc", NsPerOp: 100, BytesPerOp: 3000, AllocsPerOp: 40, mem: true, Metrics: map[string]float64{"resident_B_per_frag": 55}},
		{Name: "Batch", NsPerOp: 2000, BytesPerOp: 2000, AllocsPerOp: 50, mem: true, Metrics: map[string]float64{"resident_B_per_frag": 90}},
		{Name: "NoMem", NsPerOp: 100},
	}}
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"Inc<=0.05*Batch", true},
		{"Inc<=0.04*Batch", false},
		{"Inc<=0.7*Batch@resident_B_per_frag", true},
		{"Inc<=0.5*Batch@resident_B_per_frag", false},
		{"Inc@resident_B_per_frag<=55", true},
		{"Inc@resident_B_per_frag<=54.9", false},
		{"Inc<=100", true},
		{"Inc<=99", false},
		{"Missing@resident_B_per_frag<=1000", false},
		{"Inc@no_such_metric<=1000", false},
		{"Inc<=2*Missing", false},
		{"Inc<=1.5*Batch@B/op", true},
		{"Inc<=1.4*Batch@B/op", false},
		{"Inc@allocs/op<=40", true},
		{"Inc<=0.7*Batch@allocs/op", false},
		{"NoMem<=2*Batch@B/op", false},
	} {
		a, err := parseAssertion(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if ok, msg := a.check(rep); ok != tc.want {
			t.Errorf("%s: holds=%v (%s); want %v", tc.in, ok, msg, tc.want)
		}
	}
}
