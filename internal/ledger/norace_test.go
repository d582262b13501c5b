//go:build !race

package ledger

// raceEnabled lets allocation-gate tests skip under the race detector,
// whose instrumentation perturbs allocation counts.
const raceEnabled = false
