package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 9}, 5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated input: %v", in)
	}
}

func TestMedianBreakdownPoint(t *testing.T) {
	// The defining robustness property (Section 3): one arbitrarily large
	// outlier cannot move the median far, while it destroys the mean.
	base := []float64{10, 11, 12, 13, 14}
	withOutlier := append(append([]float64(nil), base...), 1e12)
	if m := Median(withOutlier); m > 20 {
		t.Errorf("median with outlier = %v, should stay near the bulk", m)
	}
	if m := Mean(withOutlier); m < 1e10 {
		t.Errorf("mean with outlier = %v, expected it to blow up", m)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 10 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 5.5 {
		t.Errorf("q0.5 = %v", got)
	}
	if got := Quantile(xs, 0.95); !almostEqual(got, 9.55, 1e-9) {
		t.Errorf("q0.95 = %v, want 9.55", got)
	}
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("Quantile(nil) = %v, want NaN", got)
	}
}

// TestQuantileSortedMatchesQuantile: the selection-based Quantile equals
// textbook interpolation over the fully sorted data.
func TestQuantileSortedMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 1} {
		if a, b := Quantile(xs, q), quantileSorted(s, q); a != b {
			t.Errorf("q=%v: Quantile=%v quantileSorted=%v", q, a, b)
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 = Clamp(math.Abs(math.Mod(q1, 1)), 0, 1)
		q2 = Clamp(math.Abs(math.Mod(q2, 1)), 0, 1)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(xs, q1) <= Quantile(xs, q2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTheilSenPerfectLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 2
	}
	tr, err := TheilSen(xs, ys, DefaultTrendAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tr.Slope, 3, 1e-9) || !almostEqual(tr.Intercept, 2, 1e-9) {
		t.Errorf("TheilSen slope=%v intercept=%v, want 3, 2", tr.Slope, tr.Intercept)
	}
	if !tr.Significant || tr.Agreement != 1 {
		t.Errorf("perfect line should be significant with agreement 1, got %+v", tr)
	}
}

func TestTheilSenRobustToOutlier(t *testing.T) {
	// 20 points on slope 1, then one catastrophic outlier. Theil–Sen keeps
	// the slope near 1; least squares is dragged away. This is ablation A1's
	// core claim.
	xs := make([]float64, 21)
	ys := make([]float64, 21)
	for i := 0; i < 20; i++ {
		xs[i] = float64(i)
		ys[i] = float64(i)
	}
	xs[20], ys[20] = 20, 1e6
	ts, err := TheilSen(xs, ys, DefaultTrendAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ts.Slope, 1, 0.2) {
		t.Errorf("Theil–Sen slope with outlier = %v, want ≈1", ts.Slope)
	}
	ls, err := LeastSquares(xs, ys, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Slope < 100 {
		t.Errorf("least-squares slope with outlier = %v, expected it to blow up", ls.Slope)
	}
}

func TestTheilSenNoTrendInNoise(t *testing.T) {
	// Pure alternating noise has ~50/50 slope signs: no significant trend.
	xs := make([]float64, 20)
	ys := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i)
		if i%2 == 0 {
			ys[i] = 10
		} else {
			ys[i] = -10
		}
	}
	tr, err := TheilSen(xs, ys, DefaultTrendAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Significant {
		t.Errorf("alternating noise should not yield a significant trend: %+v", tr)
	}
}

func TestTheilSenErrors(t *testing.T) {
	if _, err := TheilSen([]float64{1, 2}, []float64{1, 2}, 0.7); err != ErrInsufficientData {
		t.Errorf("short input err = %v", err)
	}
	if _, err := TheilSen([]float64{1, 2, 3}, []float64{1, 2}, 0.7); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := TheilSen([]float64{5, 5, 5}, []float64{1, 2, 3}, 0.7); err != ErrInsufficientData {
		t.Errorf("all-identical x err = %v", err)
	}
}

func TestLeastSquaresPerfectLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	tr, err := LeastSquares(xs, ys, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tr.Slope, 2, 1e-9) || !almostEqual(tr.Intercept, 1, 1e-9) {
		t.Errorf("LS slope=%v intercept=%v", tr.Slope, tr.Intercept)
	}
	if !tr.Significant || !almostEqual(tr.Agreement, 1, 1e-9) {
		t.Errorf("LS on perfect line should have R²=1: %+v", tr)
	}
}

// ranks is the allocating form of ranksInto.
func ranks(xs []float64) []float64 {
	var idx []int
	return ranksInto(nil, xs, &idx)
}

func TestRanks(t *testing.T) {
	got := ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
	// Ties share the average rank.
	got = ranks([]float64{5, 5, 1, 9})
	want = []float64{2.5, 2.5, 1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks with ties = %v, want %v", got, want)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Spearman detects non-linear monotone dependence perfectly; Pearson
	// does not (Section 3.2.2's motivation).
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // strongly convex but monotone
	}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rho, 1, 1e-9) {
		t.Errorf("Spearman of monotone series = %v, want 1", rho)
	}
	p, _ := Pearson(xs, ys)
	if p >= 0.999 {
		t.Errorf("Pearson of convex series = %v, expected < 1", p)
	}
}

func TestSpearmanNegativeAndZero(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	down := []float64{10, 8, 6, 4, 2}
	rho, err := Spearman(xs, down)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rho, -1, 1e-9) {
		t.Errorf("Spearman of decreasing series = %v, want -1", rho)
	}
	flat := []float64{7, 7, 7, 7, 7}
	rho, err = Spearman(xs, flat)
	if err != nil {
		t.Fatal(err)
	}
	if rho != 0 {
		t.Errorf("Spearman against constant = %v, want 0", rho)
	}
}

func TestSpearmanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(i)
			}
			xs[i] = float64(i)
			ys[i] = v
		}
		rho, err := Spearman(xs, ys)
		if err != nil {
			return false
		}
		return rho >= -1-1e-9 && rho <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1}); err != ErrInsufficientData {
		t.Errorf("err = %v", err)
	}
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Spearman([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("Spearman length mismatch should error")
	}
	if _, err := Spearman([]float64{1, 2}, []float64{1, 2}); err != ErrInsufficientData {
		t.Error("Spearman short input should error")
	}
}

func TestCDF(t *testing.T) {
	cdf := CDF([]float64{1, 1, 2, 4})
	want := []CDFPoint{{1, 0.5}, {2, 0.75}, {4, 1}}
	if len(cdf) != len(want) {
		t.Fatalf("CDF = %v, want %v", cdf, want)
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Fatalf("CDF[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	if got := CDFAt(cdf, 0.5); got != 0 {
		t.Errorf("CDFAt(0.5) = %v", got)
	}
	if got := CDFAt(cdf, 3); got != 0.75 {
		t.Errorf("CDFAt(3) = %v", got)
	}
	if got := CDFAt(cdf, 100); got != 1 {
		t.Errorf("CDFAt(100) = %v", got)
	}
	if got := CDF(nil); got != nil {
		t.Errorf("CDF(nil) = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	edges := []float64{1, 2, 3}
	h := Histogram([]float64{0.5, 1, 1.5, 2.5, 3, 10}, edges)
	// Buckets: (-inf,1) [1,2) [2,3) [3,+inf)
	wantCounts := []int{1, 2, 1, 2}
	if len(h) != len(wantCounts) {
		t.Fatalf("got %d buckets", len(h))
	}
	for i, w := range wantCounts {
		if h[i].Count != w {
			t.Errorf("bucket %d count = %d, want %d (%+v)", i, h[i].Count, w, h[i])
		}
	}
	total := 0
	for _, b := range h {
		total += b.Count
	}
	if total != 6 {
		t.Errorf("histogram lost observations: total=%d", total)
	}
}

func TestHistogramConservationProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		h := Histogram(xs, []float64{-10, 0, 10, 1000})
		total := 0
		for _, b := range h {
			total += b.Count
		}
		return total == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 10); got != 5 {
		t.Errorf("Clamp mid = %v", got)
	}
	if got := Clamp(-1, 0, 10); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Clamp(11, 0, 10); got != 10 {
		t.Errorf("Clamp high = %v", got)
	}
}
