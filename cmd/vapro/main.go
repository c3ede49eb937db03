// Command vapro runs one of the bundled application skeletons with the
// Vapro detector attached, optionally injecting noise, and prints the
// detection report, heat maps, and progressive diagnosis.
//
// Usage:
//
//	vapro -app CG -ranks 64
//	vapro -app CG -ranks 64 -cpu-noise node=0,start=0.5,end=1.5,share=0.5 -diagnose
//	vapro -app PageRank -mem-noise node=0,start=0.05,end=0.12,slow=3 -diagnose
//	vapro -list
//
// Subcommands:
//
//	vapro serve  -listen 127.0.0.1:0 -metrics 127.0.0.1:0   start a collector (-shards N: N planes, one metrics endpoint)
//	vapro serve  -journal DIR                               …with a crash-safe delivery journal
//	vapro status -addr HOST:PORT                            render its live metrics
//	vapro status -addr HOST:PORT -json|-trace|-fleet        /fleet health schema / batch journeys / health table
//	vapro feed   -bootstrap HOST:PORT -ranks 4 -batches 32  stream synthetic traced batches into it
//	vapro analyze -journal DIR -diagnose                    re-analyze a journal: serve's, or a run recorded with -record DIR
//	vapro analyze -journal DIR -from 0 -to 30               …plus its analysis windows over a range
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vapro"
)

func parseKVs(spec string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vapro: bad value in %q\n", part)
			os.Exit(2)
		}
		out[strings.TrimSpace(kv[0])] = v
	}
	return out
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "status":
			statusMain(os.Args[2:])
			return
		case "feed":
			feedMain(os.Args[2:])
			return
		case "analyze":
			os.Exit(analyzeMain(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	appName := flag.String("app", "CG", "application skeleton to run (see -list)")
	ranks := flag.Int("ranks", 0, "process/thread count (0 = app default)")
	seed := flag.Uint64("seed", 1, "random seed")
	size := flag.Float64("size", 1, "problem-size multiplier (scales iteration counts)")
	cpuNoise := flag.String("cpu-noise", "", "inject CPU contention: node=N,start=S,end=E,share=F[,core=C]")
	memNoise := flag.String("mem-noise", "", "inject memory contention: node=N,start=S,end=E,slow=F")
	ioNoise := flag.String("io-noise", "", "inject IO interference: start=S,end=E,slow=F")
	degraded := flag.Int("degraded-node", -1, "node with degraded memory bandwidth (84.5%)")
	record := flag.String("record", "", "journal the delivered fragment stream into this directory (analyze later with vapro analyze -journal DIR)")
	jsonOut := flag.String("json", "", "write a machine-readable JSON summary to this file")
	rf := addReportFlags(flag.CommandLine)
	online := flag.Bool("online", false, "run in deployment mode: report variance events live (Figure 8)")
	overhead := flag.Bool("overhead", false, "also run untraced baseline and report tool overhead")
	list := flag.Bool("list", false, "list bundled applications and exit")
	flag.Parse()

	if *list {
		for _, n := range vapro.Apps() {
			fmt.Println(n)
		}
		return
	}

	app, err := vapro.App(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vapro:", err)
		os.Exit(2)
	}

	if *size != 1 {
		app.(vapro.SizeScaler).ScaleSize(*size)
	}

	opt := vapro.DefaultOptions()
	opt.Ranks = *ranks
	opt.Seed = *seed

	sch := vapro.NewNoise()
	addedNoise := false
	if *cpuNoise != "" {
		kv := parseKVs(*cpuNoise)
		core := -1
		if c, ok := kv["core"]; ok {
			core = int(c)
		}
		ev := vapro.CPUContention(int(kv["node"]), core, vapro.Seconds(kv["start"]), vapro.Seconds(kv["end"]), kv["share"])
		if core < 0 {
			ev.AllCores = true
		}
		sch.Add(ev)
		addedNoise = true
	}
	if *memNoise != "" {
		kv := parseKVs(*memNoise)
		sch.Add(vapro.MemContention(int(kv["node"]), vapro.Seconds(kv["start"]), vapro.Seconds(kv["end"]), kv["slow"]))
		addedNoise = true
	}
	if *ioNoise != "" {
		kv := parseKVs(*ioNoise)
		sch.Add(vapro.IOInterference(vapro.Seconds(kv["start"]), vapro.Seconds(kv["end"]), kv["slow"]))
		addedNoise = true
	}
	if *degraded >= 0 {
		sch.Add(vapro.DegradedMemoryNode(*degraded, 0.845))
		addedNoise = true
	}
	if addedNoise {
		opt.Noise = sch
	}

	var plain *vapro.PlainResult
	if *overhead {
		base, _ := vapro.App(*appName)
		plain = vapro.RunPlain(base, opt)
	}

	if *record != "" {
		jl, err := vapro.OpenJournal(*record)
		if err == nil && jl.Pending() > 0 {
			jl.Close()
			err = fmt.Errorf("%s already holds a journal", *record)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vapro:", err)
			os.Exit(1)
		}
		opt.Journal = jl
	}

	var res *vapro.Result
	if *online {
		on := vapro.RunOnline(app, opt)
		res = on.Result
		fmt.Printf("online events: %d (final stage %d)\n", len(on.Events), on.Monitor.Stage())
		for i, ev := range on.Events {
			fmt.Printf("  event %d: window %.2fs-%.2fs, %d region(s)\n",
				i+1, ev.WindowStart.Seconds(), ev.WindowEnd.Seconds(), len(ev.Regions))
		}
	} else {
		res = vapro.Run(app, opt)
	}
	if *record != "" {
		err := opt.Journal.Close()
		if err == nil {
			err = res.SaveRunInfo(*record)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vapro:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded fragment stream to %s\n", *record)
	}
	if err := printReport(os.Stdout, res, plain, *jsonOut, rf); err != nil {
		fmt.Fprintln(os.Stderr, "vapro:", err)
		os.Exit(1)
	}
}
