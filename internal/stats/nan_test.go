package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestQuantileNaNQ is the satellite bugfix regression: a NaN quantile
// request used to escape both range clamps in the interpolation (NaN
// comparisons are all false), producing a NaN position and an out-of-range
// index — a panic on the select path, garbage on the sorted path. Every
// quantile entry point must return NaN instead.
func TestQuantileNaNQ(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	nan := math.NaN()
	if got := Quantile(xs, nan); !math.IsNaN(got) {
		t.Errorf("Quantile(xs, NaN) = %v, want NaN", got)
	}
	if got := QuantileSelect(append([]float64(nil), xs...), nan); !math.IsNaN(got) {
		t.Errorf("QuantileSelect(xs, NaN) = %v, want NaN", got)
	}
	if got := quantileReference(xs, nan); !math.IsNaN(got) {
		t.Errorf("quantileReference(xs, NaN) = %v, want NaN", got)
	}
	// Empty input stays NaN too, on every path.
	if got := QuantileSelect(nil, nan); !math.IsNaN(got) {
		t.Errorf("QuantileSelect(nil, NaN) = %v, want NaN", got)
	}
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("Quantile(nil, 0.5) = %v, want NaN", got)
	}
}

// TestQuantileNaNValuesNoPanic: NaN *values* in the data must never panic
// any quantile path (the result is unspecified, the absence of a crash is
// the contract — the telemetry manager sanitizes NaNs before they reach
// these kernels).
func TestQuantileNaNValuesNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		if trial%8 == 0 {
			n = sampledSelectMin + rng.Intn(2000) // the sampled bracket's NaN-pivot fallback
		}
		xs := make([]float64, n)
		for i := range xs {
			if rng.Intn(3) == 0 {
				xs[i] = math.NaN()
			} else {
				xs[i] = rng.NormFloat64() * 100
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 1, math.NaN()} {
			Quantile(xs, q)
			QuantileSelect(append([]float64(nil), xs...), q)
			QuantileSelectUnordered(append([]float64(nil), xs...), q)
			quantileReference(xs, q)
		}
		Median(xs)
		MedianInPlace(append([]float64(nil), xs...))
	}
}

// TestQuantileSelectNaNQBitIdenticalToReference: with q = NaN now handled,
// the fast path and the oracle must still agree bit-for-bit across finite
// inputs and the full q range including the repaired edge.
func TestQuantileSelectNaNQBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(rng.NormFloat64()*50) / 2 // frequent ties
		}
		q := rng.Float64()*1.4 - 0.2 // includes out-of-range q
		switch trial % 7 {
		case 0:
			q = math.NaN()
		case 1:
			q = 0
		case 2:
			q = 1
		}
		got := QuantileSelect(append([]float64(nil), xs...), q)
		want := quantileReference(xs, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: QuantileSelect(xs, %v) = %v, reference %v", trial, q, got, want)
		}
	}
}
