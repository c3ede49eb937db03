package vapro_test

import (
	"fmt"

	"vapro"
)

// ExampleRun demonstrates the basic detect-and-diagnose loop: run an
// application with Vapro attached, inject noise, read the verdict. The
// output is deterministic because all simulator randomness is seeded.
func ExampleRun() {
	app, _ := vapro.App("CG")
	opt := vapro.DefaultOptions()
	opt.Ranks = 16

	// A stress-like process steals half the CPU of node 0's core 2
	// over one second of the iteration phase.
	sch := vapro.NewNoise()
	sch.Add(vapro.CPUContention(0, 2, vapro.Seconds(0.9), vapro.Seconds(1.9), 0.5))
	opt.Noise = sch

	res := vapro.Run(app, opt)
	var comp int
	for _, reg := range res.Detection.Regions {
		if reg.Class == vapro.Computation {
			comp++
		}
	}
	fmt.Printf("computation regions detected: %d\n", comp)
	if rep := res.DiagnoseTop(vapro.Computation, vapro.DefaultDiagnoseOptions()); rep != nil && len(rep.Factors) > 0 {
		fmt.Printf("top factor: %v\n", rep.Factors[0].Factor)
	}
	// Output:
	// computation regions detected: 1
	// top factor: suspension
}

// ExampleRunPlain shows overhead accounting against an untraced
// baseline.
func ExampleRunPlain() {
	opt := vapro.DefaultOptions()
	opt.Ranks = 8

	base, _ := vapro.App("EP")
	plain := vapro.RunPlain(base, opt)

	traced, _ := vapro.App("EP")
	res := vapro.Run(traced, opt)

	fmt.Printf("overhead below 1%%: %v\n", res.Overhead(plain) < 0.01)
	// Output:
	// overhead below 1%: true
}
