package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// cleanSeries turns an arbitrary float slice into a finite series of at
// least n points.
func cleanSeries(raw []float64, n int) []float64 {
	xs := make([]float64, 0, len(raw)+n)
	for _, v := range raw {
		if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
			xs = append(xs, v)
		}
	}
	for i := len(xs); i < n; i++ {
		xs = append(xs, float64(i*i%17))
	}
	return xs
}

func TestMedianBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := cleanSeries(raw, 1)
		m := Median(xs)
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTheilSenAffineEquivariance(t *testing.T) {
	// TheilSen(x, a·y + b).Slope == a·TheilSen(x, y).Slope for a ≠ 0.
	f := func(raw []float64, a8, b8 int8) bool {
		a := float64(a8)
		if a == 0 {
			a = 2
		}
		b := float64(b8)
		ys := cleanSeries(raw, 5)
		xs := make([]float64, len(ys))
		for i := range xs {
			xs[i] = float64(i)
		}
		base, err := TheilSen(xs, ys, DefaultTrendAlpha)
		if err != nil {
			return true
		}
		scaled := make([]float64, len(ys))
		for i, y := range ys {
			scaled[i] = a*y + b
		}
		tr, err := TheilSen(xs, scaled, DefaultTrendAlpha)
		if err != nil {
			return false
		}
		return math.Abs(tr.Slope-a*base.Slope) < 1e-6*(1+math.Abs(a*base.Slope))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpearmanInvariantUnderMonotoneTransform(t *testing.T) {
	// ρ(x, y) == ρ(x, g(y)) for strictly increasing g (here exp(y/scale)).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		rho1, err := Spearman(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		gy := make([]float64, n)
		for i, y := range ys {
			gy[i] = math.Exp(y / 3)
		}
		rho2, err := Spearman(xs, gy)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rho1-rho2) > 1e-9 {
			t.Fatalf("trial %d: ρ changed under monotone transform: %v vs %v", trial, rho1, rho2)
		}
	}
}

func TestRanksArePermutationWithoutTies(t *testing.T) {
	f := func(raw []float64) bool {
		// Deduplicate to guarantee no ties.
		seen := map[float64]bool{}
		var xs []float64
		for _, v := range cleanSeries(raw, 3) {
			if !seen[v] {
				seen[v] = true
				xs = append(xs, v)
			}
		}
		rs := ranks(xs)
		sorted := append([]float64(nil), rs...)
		sort.Float64s(sorted)
		for i, r := range sorted {
			if r != float64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRanksSumInvariant(t *testing.T) {
	// Even with ties, fractional ranks must sum to n(n+1)/2.
	f := func(raw []float64) bool {
		xs := cleanSeries(raw, 2)
		var sum float64
		for _, r := range ranks(xs) {
			sum += r
		}
		n := float64(len(xs))
		return math.Abs(sum-n*(n+1)/2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCDFHistogramConsistency(t *testing.T) {
	// The CDF fraction at a histogram edge equals the share of
	// observations in buckets strictly below that edge.
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	edges := []float64{10, 25, 50, 75}
	cdf := CDF(xs)
	hist := Histogram(xs, edges)
	cum := 0
	for i, e := range edges {
		cum += hist[i].Count
		want := float64(cum) / float64(len(xs))
		// Histogram buckets are [lo, hi): values < e are in buckets 0..i.
		got := CDFAt(cdf, e-1e-9)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("edge %v: CDF %v vs histogram %v", e, got, want)
		}
	}
}

func TestTheilSenAgreementBounds(t *testing.T) {
	f := func(raw []float64) bool {
		ys := cleanSeries(raw, 4)
		xs := make([]float64, len(ys))
		for i := range xs {
			xs[i] = float64(i)
		}
		tr, err := TheilSen(xs, ys, DefaultTrendAlpha)
		if err != nil {
			return true
		}
		return tr.Agreement >= 0 && tr.Agreement <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
