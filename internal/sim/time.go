// Package sim provides the simulated hardware substrate Vapro runs on:
// a virtual clock, a deterministic random number generator, a machine
// model (nodes, cores, memory hierarchy), and an execution engine that
// turns abstract workloads into elapsed virtual time and performance
// counters obeying the top-down pipeline-slot accounting identities.
//
// The paper evaluates Vapro on real CPUs with hardware PMUs; this package
// is the substitution documented in DESIGN.md: it produces counter values
// with the same structure (and the same accounting identities) the real
// PMU produces, so the detection and diagnosis algorithms exercise the
// same code paths they would on hardware.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulated run. Virtual time is completely decoupled from wall-clock
// time: a 60-second simulated execution of 2048 ranks completes in well
// under a second of wall time.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration like time.Duration does.
func (d Duration) String() string { return time.Duration(d).String() }

// Seconds reports the time as floating-point seconds since run start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// FromSeconds converts floating-point seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }
