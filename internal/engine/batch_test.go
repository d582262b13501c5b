package engine

import (
	"math"
	"testing"

	"daasscale/internal/telemetry"
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

// lastWaitTypes collects VisitLastIntervalWaitTypes' breakdown into a map.
func lastWaitTypes(e *Engine) map[telemetry.WaitType]float64 {
	out := map[telemetry.WaitType]float64{}
	e.VisitLastIntervalWaitTypes(func(wt telemetry.WaitType, ms float64) { out[wt] += ms })
	return out
}

// TestVisitLastIntervalWaitTypes: the visitor visits nothing before the
// first interval, then each wait type once, in the same order on every
// call, with a positive total that folds back through the classifier.
func TestVisitLastIntervalWaitTypes(t *testing.T) {
	e := mustEngine(t, workload.TPCC(), cat.AtStep(3), 13)
	visits := 0
	e.VisitLastIntervalWaitTypes(func(telemetry.WaitType, float64) { visits++ })
	if visits != 0 {
		t.Fatalf("visitor fired %d times before the first interval", visits)
	}

	for i := 0; i < e.TicksPerInterval(); i++ {
		e.Tick(200)
	}
	e.EndInterval()

	var order []telemetry.WaitType
	e.VisitLastIntervalWaitTypes(func(wt telemetry.WaitType, _ float64) { order = append(order, wt) })
	k := 0
	e.VisitLastIntervalWaitTypes(func(wt telemetry.WaitType, _ float64) {
		if k >= len(order) || order[k] != wt {
			t.Fatalf("visit %d: %s, want the first call's order %v", k, wt, order)
		}
		k++
	})
	byType := lastWaitTypes(e)
	if len(byType) != len(order) {
		t.Fatalf("a wait type was visited twice: %d visits, %d types", len(order), len(byType))
	}
	var total float64
	for _, v := range byType {
		total += v
	}
	if total <= 0 || math.IsNaN(total) {
		t.Fatalf("degenerate wait total %v", total)
	}
	// Folding the breakdown back through the classifier reproduces the
	// snapshot's class totals (the estimator-facing contract).
	agg := telemetry.AggregateWaitTypes(byType)
	for cls, ms := range agg {
		if ms < 0 {
			t.Fatalf("class %d negative after aggregation: %v", cls, ms)
		}
	}
}
