package engine

import (
	"testing"

	"daasscale/internal/workload"
)

// TestTickBatchEmpty: a zero-length batch is a no-op.
func TestTickBatchEmpty(t *testing.T) {
	e := mustEngine(t, workload.DS2(), cat.AtStep(4), 9)
	e.Tick(50)
	before := e.acc
	e.TickBatch(nil)
	e.TickBatch([]float64{})
	if e.acc.ticks != before.ticks || e.acc.txns != before.txns {
		t.Fatal("empty TickBatch mutated the accumulator")
	}
}

// TestResetReleasesOversizedLatSamples is the retained-capacity regression
// test: a burst interval (far more ticks than TicksPerInterval before
// EndInterval) must not pin its oversized latency-sample array for the
// engine's lifetime, while a normal interval's array keeps being reused.
func TestResetReleasesOversizedLatSamples(t *testing.T) {
	e := mustEngine(t, workload.DS2(), cat.AtStep(5), 11)
	// Burst: enough high-load ticks to exceed the retained cap (24
	// samples per tick at offered >= 24).
	for i := 0; i < maxRetainedLatSamples/24+50; i++ {
		e.Tick(500)
	}
	if len(e.acc.latSamples) <= maxRetainedLatSamples {
		t.Fatalf("burst interval produced only %d samples; test needs > %d",
			len(e.acc.latSamples), maxRetainedLatSamples)
	}
	e.EndInterval()
	if c := cap(e.acc.latSamples); c > maxRetainedLatSamples {
		t.Fatalf("oversized backing array retained after reset: cap %d > %d", c, maxRetainedLatSamples)
	}

	// Normal intervals: the (sane-sized) array is retained and reused.
	for i := 0; i < e.TicksPerInterval(); i++ {
		e.Tick(500)
	}
	e.EndInterval()
	c1 := cap(e.acc.latSamples)
	if c1 == 0 || c1 > maxRetainedLatSamples {
		t.Fatalf("normal interval retained cap %d, want 1..%d", c1, maxRetainedLatSamples)
	}
	for i := 0; i < e.TicksPerInterval(); i++ {
		e.Tick(500)
	}
	e.EndInterval()
	if c2 := cap(e.acc.latSamples); c2 != c1 {
		t.Fatalf("steady-state interval reallocated the sample array: cap %d -> %d", c1, c2)
	}
}
