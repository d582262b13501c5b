//go:build race

package loop

// raceEnabled lets allocation-gate tests skip under the race detector,
// whose instrumentation perturbs allocation counts.
const raceEnabled = true
