//go:build race

package cluster_test

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random share of what is put back, so allocation counts of code that
// recycles scratch through a pool are not reproducible.
const raceEnabled = true
