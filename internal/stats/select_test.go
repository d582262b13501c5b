package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// adversarialSeries are fixed inputs that historically break selection and
// ranking code: ties everywhere, sorted/reversed runs, constant series,
// two-value series, and sign changes.
func adversarialSeries() [][]float64 {
	return [][]float64{
		{1},
		{2, 1},
		{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14},
		{14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0},
		{-3, 7, -3, 7, 0, 0, 0, -3, 7, 1e9, -1e9, 0.5},
		{2.5, 2.5, 1, 1, 1, 9, 9, 9, 9, 2.5},
	}
}

func TestQuantileSelectMatchesQuantileProperty(t *testing.T) {
	f := func(raw []float64, q16 uint16) bool {
		xs := cleanSeries(raw, 1)
		q := float64(q16) / math.MaxUint16
		own := append([]float64(nil), xs...)
		got := QuantileSelect(own, q)
		want := quantileReference(xs, q)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantileSelectAdversarial(t *testing.T) {
	for _, xs := range adversarialSeries() {
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1} {
			own := append([]float64(nil), xs...)
			got := QuantileSelect(own, q)
			want := quantileReference(xs, q)
			if got != want {
				t.Errorf("QuantileSelect(%v, %v) = %v, want %v", xs, q, got, want)
			}
		}
	}
}

func TestQuantileSelectPreservesMultiset(t *testing.T) {
	f := func(raw []float64, q16 uint16) bool {
		xs := cleanSeries(raw, 1)
		q := float64(q16) / math.MaxUint16
		own := append([]float64(nil), xs...)
		QuantileSelect(own, q)
		a := append([]float64(nil), xs...)
		sort.Float64s(a)
		sort.Float64s(own)
		for i := range a {
			if a[i] != own[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuantileSelectUnorderedMatches pins the unordered variant to
// QuantileSelect bit-for-bit on random and adversarial inputs (including
// large tied/sorted runs that drive the Hoare scans and the depth fallback),
// and checks it still only permutes — same multiset afterwards.
func TestQuantileSelectUnorderedMatches(t *testing.T) {
	f := func(raw []float64, q16 uint16) bool {
		xs := cleanSeries(raw, 1)
		q := float64(q16) / math.MaxUint16
		a := append([]float64(nil), xs...)
		b := append([]float64(nil), xs...)
		if QuantileSelectUnordered(a, q) != QuantileSelect(b, q) {
			return false
		}
		sort.Float64s(a)
		sort.Float64s(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}

	series := adversarialSeries()
	rng := rand.New(rand.NewSource(95))
	big := make([]float64, 5000)
	for i := range big {
		big[i] = math.Floor(rng.Float64() * 8) // heavy ties at length
	}
	series = append(series, big, make([]float64, 3000)) // all-zero run
	for _, xs := range series {
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 1, math.NaN()} {
			a := append([]float64(nil), xs...)
			b := append([]float64(nil), xs...)
			got, want := QuantileSelectUnordered(a, q), QuantileSelect(b, q)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("QuantileSelectUnordered(len %d, q=%v) = %v, want %v", len(xs), q, got, want)
			}
		}
	}
	if !math.IsNaN(QuantileSelectUnordered(nil, 0.5)) {
		t.Error("empty input must return NaN")
	}
}

// engineShaped fills n latency samples the way the engine's tick kernel
// draws them: runs of 24 lognormal samples around a per-tick base value.
func engineShaped(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	var base float64
	for i := range xs {
		if i%24 == 0 {
			base = 20 * math.Exp(0.5*rng.NormFloat64())
		}
		xs[i] = base * math.Exp(0.3*rng.NormFloat64())
	}
	return xs
}

// TestQuantileSelectUnorderedSampled pins the sampled bracket at and above
// sampledSelectMin: on the engine's sample shape, heavy ties, constant,
// sorted and reversed runs, and a layout whose sample is all maxima (so
// the bracket misses and the whole-slice fallback runs), every quantile
// must equal QuantileSelect's bit for bit and the multiset must survive.
func TestQuantileSelectUnorderedSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{sampledSelectMin - 1, sampledSelectMin, 1440, 17280} {
		ties := make([]float64, n)
		equal := make([]float64, n)
		sorted := engineShaped(rng, n)
		sort.Float64s(sorted)
		reversed := make([]float64, n)
		missed := engineShaped(rng, n)
		for i := range ties {
			ties[i] = math.Floor(8 * rng.Float64())
			equal[i] = 42.5
			reversed[i] = sorted[n-1-i]
		}
		for j := 0; j < selectSample; j++ {
			missed[j*n/selectSample] = 1e9
		}
		inputs := map[string][]float64{
			"engine": engineShaped(rng, n), "ties": ties, "equal": equal,
			"sorted": sorted, "reversed": reversed, "missed": missed,
		}
		for name, xs := range inputs {
			for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
				a := append([]float64(nil), xs...)
				b := append([]float64(nil), xs...)
				got, want := QuantileSelectUnordered(a, q), QuantileSelect(b, q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s n=%d q=%v: got %v, want %v", name, n, q, got, want)
				}
				sort.Float64s(a)
				sort.Float64s(b)
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("%s n=%d q=%v: multiset changed at sorted index %d", name, n, q, i)
					}
				}
			}
		}
	}
}

// TestQuantileSelectUnorderedBracketEdges builds, for every sample rank a
// pivot could be drawn from, a layout whose sample holds the value of
// global rank `rank` (next to the wanted one) at exactly that sample rank.
// Some layout then puts a pivot on the wanted order statistic's edge: it is
// the last candidate, the smallest value above the bracket, or just missed.
func TestQuantileSelectUnorderedBracketEdges(t *testing.T) {
	n := sampledSelectMin
	sampled := make([]bool, n)
	for j := 0; j < selectSample; j++ {
		sampled[j*n/selectSample] = true
	}
	for _, q := range []float64{0.05, 0.5, 0.95} {
		lo := int(q * float64(n-1))
		for _, rank := range []int{lo - 1, lo, lo + 1, lo + 2} {
			for below := 0; below < selectSample; below++ {
				above := selectSample - below - 1
				if below > rank || above > n-1-rank {
					continue
				}
				// The sample takes ranks [0, below), rank and the top
				// above ranks; the rest fill the other slots in reverse.
				var sample, rest []float64
				for r := 0; r < n; r++ {
					if r < below || r == rank || r >= n-above {
						sample = append(sample, float64(r))
					} else {
						rest = append(rest, float64(r))
					}
				}
				xs := make([]float64, n)
				for i := range xs {
					if sampled[i] {
						xs[i], sample = sample[0], sample[1:]
					} else {
						xs[i], rest = rest[len(rest)-1], rest[:len(rest)-1]
					}
				}
				want := QuantileSelect(append([]float64(nil), xs...), q)
				if got := QuantileSelectUnordered(xs, q); got != want {
					t.Fatalf("q=%v rank=%d below=%d: got %v, want %v", q, rank, below, got, want)
				}
			}
		}
	}
}

// selectSink keeps the benchmarked selection from being optimised away.
var selectSink float64

// BenchmarkQuantileSelectUnordered times the engine's per-interval P95
// (n = 1440) and a run-length buffer (n = 17280) on engine-shaped data. It
// rotates through 256 distinct inputs: with one input repeated, the branch
// predictor learns the array and the numbers flatter every kernel.
func BenchmarkQuantileSelectUnordered(b *testing.B) {
	for _, n := range []int{1440, 17280} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			inputs := make([][]float64, 256)
			for i := range inputs {
				inputs[i] = engineShaped(rng, n)
			}
			buf := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, inputs[i%len(inputs)])
				selectSink = QuantileSelectUnordered(buf, 0.95)
			}
		})
	}
}

func TestMedianInPlaceMatchesMedian(t *testing.T) {
	f := func(raw []float64) bool {
		xs := cleanSeries(raw, 1)
		own := append([]float64(nil), xs...)
		return MedianInPlace(own) == medianReference(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// trendEqual demands bit-identical Trend fields (the equivalence contract
// of the buffered kernels).
func trendEqual(a, b Trend) bool {
	return a.Slope == b.Slope && a.Intercept == b.Intercept &&
		a.Significant == b.Significant && a.Agreement == b.Agreement && a.N == b.N
}

func TestTheilSenBufMatchesTheilSenProperty(t *testing.T) {
	var buf []float64 // reused across trials, as the manager reuses it
	f := func(raw []float64, alpha8 uint8) bool {
		ys := cleanSeries(raw, 3)
		alpha := float64(alpha8) / 255
		xs := make([]float64, len(ys))
		for i := range xs {
			xs[i] = float64(i)
		}
		want, errWant := theilSenReference(xs, ys, alpha)
		got, errGot := TheilSenBuf(xs, ys, alpha, &buf)
		if (errWant == nil) != (errGot == nil) {
			return false
		}
		return errWant != nil || trendEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTheilSenBufAdversarial(t *testing.T) {
	var buf []float64
	cases := adversarialSeries()
	// Constant-x series: every pairwise slope is skipped.
	constX := make([]float64, 8)
	for i := range constX {
		constX[i] = 4
	}
	for _, ys := range cases {
		for _, xs := range [][]float64{nil, constX[:min(len(constX), len(ys))]} {
			if xs == nil {
				xs = make([]float64, len(ys))
				for i := range xs {
					xs[i] = float64(i)
				}
			}
			if len(xs) != len(ys) {
				continue
			}
			want, errWant := theilSenReference(xs, ys, DefaultTrendAlpha)
			got, errGot := TheilSenBuf(xs, ys, DefaultTrendAlpha, &buf)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("error mismatch for ys=%v: %v vs %v", ys, errWant, errGot)
			}
			if errWant == nil && !trendEqual(got, want) {
				t.Errorf("TheilSenBuf(%v) = %+v, want %+v", ys, got, want)
			}
		}
	}
}

func TestTheilSenBufErrors(t *testing.T) {
	var buf []float64
	if _, err := TheilSenBuf([]float64{1, 2, 3}, []float64{1, 2}, 0.7, &buf); err != ErrLengthMismatch {
		t.Errorf("length mismatch error = %v", err)
	}
	if _, err := TheilSenBuf([]float64{1, 2}, []float64{1, 2}, 0.7, &buf); err != ErrInsufficientData {
		t.Errorf("short series error = %v", err)
	}
	if _, err := TheilSenBuf([]float64{5, 5, 5}, []float64{1, 2, 3}, 0.7, &buf); err != ErrInsufficientData {
		t.Errorf("constant-x error = %v", err)
	}
}

func TestSpearmanBufMatchesSpearmanProperty(t *testing.T) {
	var sc SpearmanScratch
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.NormFloat64() * 4) // coarse → frequent ties
			ys[i] = math.Floor(rng.NormFloat64() * 4)
		}
		want, errWant := spearmanReference(xs, ys)
		got, errGot := SpearmanBuf(xs, ys, &sc)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("error mismatch: %v vs %v", errWant, errGot)
		}
		if got != want {
			t.Fatalf("trial %d: SpearmanBuf = %v, want %v (xs=%v ys=%v)", trial, got, want, xs, ys)
		}
	}
}

func TestSpearmanBufAdversarial(t *testing.T) {
	var sc SpearmanScratch
	for _, ys := range adversarialSeries() {
		if len(ys) < 3 {
			continue
		}
		xs := make([]float64, len(ys))
		for i := range xs {
			xs[i] = float64(i % 4) // tied x ranks
		}
		want, _ := spearmanReference(xs, ys)
		got, err := SpearmanBuf(xs, ys, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("SpearmanBuf(%v) = %v, want %v", ys, got, want)
		}
	}
}

func TestRanksIntoMatchesSortSliceReference(t *testing.T) {
	f := func(raw []float64) bool {
		xs := cleanSeries(raw, 1)
		got := ranks(xs)
		want := ranksReference(xs)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCDFAtMatchesLinearScan(t *testing.T) {
	linear := func(cdf []CDFPoint, v float64) float64 {
		frac := 0.0
		for _, p := range cdf {
			if p.Value <= v {
				frac = p.Fraction
			} else {
				break
			}
		}
		return frac
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(200))
		for i := range xs {
			xs[i] = math.Floor(rng.Float64() * 50) // ties collapse CDF points
		}
		cdf := CDF(xs)
		for _, v := range []float64{-1, 0, 0.5, 10, 24.5, 49, 50, 1e9, xs[0]} {
			if got, want := CDFAt(cdf, v), linear(cdf, v); got != want {
				t.Fatalf("CDFAt(%v) = %v, want %v", v, got, want)
			}
		}
	}
}

func TestSelectKernelsZeroAllocWhenWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	xs := make([]float64, 10)
	ys := make([]float64, 10)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64((i * 7) % 10)
	}
	scratch := make([]float64, 10)
	var buf []float64
	var sc SpearmanScratch
	// Warm the arenas once.
	if _, err := TheilSenBuf(xs, ys, DefaultTrendAlpha, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := SpearmanBuf(xs, ys, &sc); err != nil {
		t.Fatal(err)
	}
	// A warm engine-sized interval buffer: the sampled bracket's sample
	// must stay on the stack.
	interval := engineShaped(rand.New(rand.NewSource(1440)), 1440)
	intervalScratch := make([]float64, len(interval))
	allocs := testing.AllocsPerRun(100, func() {
		copy(scratch, ys)
		_ = MedianInPlace(scratch)
		_ = QuantileSelect(scratch, 0.95)
		copy(intervalScratch, interval)
		_ = QuantileSelectUnordered(intervalScratch, 0.95)
		if _, err := TheilSenBuf(xs, ys, DefaultTrendAlpha, &buf); err != nil {
			t.Fatal(err)
		}
		if _, err := SpearmanBuf(xs, ys, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm stats kernels allocated %v times per run, want 0", allocs)
	}
}
