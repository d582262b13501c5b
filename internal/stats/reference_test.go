// Reference implementations of the selection/scratch kernels: the
// pre-optimization copy-sort-and-allocate code paths, kept as equivalence
// oracles for the property tests, which assert that the in-place kernels
// (QuantileSelect, TheilSenBuf, SpearmanBuf, the rank kernel) are
// bit-identical to these.
package stats

import (
	"math"
	"sort"
)

// medianReference is the pre-optimization Median: copy, sort, interpolate.
func medianReference(xs []float64) float64 {
	return quantileReference(xs, 0.5)
}

// quantileReference is the pre-optimization Quantile: it copies xs, fully
// sorts the copy, and interpolates between order statistics. Bit-identical
// to QuantileSelect on the same finite input; q = NaN returns NaN on both.
func quantileReference(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted interpolates the q-quantile of non-empty data sorted
// ascending, the textbook way the selection kernels must match.
func quantileSorted(s []float64, q float64) float64 {
	if math.IsNaN(q) {
		// NaN escapes both clamps below; pos would be NaN and the floor an
		// out-of-range index. The NaN quantile of any data is NaN.
		return math.NaN()
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// theilSenReference is the pre-optimization Theil–Sen estimator: it
// allocates the pairwise-slope slice on every call and takes medians by
// copy-and-sort. Bit-identical to TheilSenBuf on the same input.
func theilSenReference(xs, ys []float64, alpha float64) (Trend, error) {
	if len(xs) != len(ys) {
		return Trend{}, ErrLengthMismatch
	}
	n := len(xs)
	if n < 3 {
		return Trend{}, ErrInsufficientData
	}
	slopes := make([]float64, 0, n*(n-1)/2)
	var pos, neg int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[j] - xs[i]
			if dx == 0 {
				continue
			}
			m := (ys[j] - ys[i]) / dx
			slopes = append(slopes, m)
			switch {
			case m > 0:
				pos++
			case m < 0:
				neg++
			}
		}
	}
	if len(slopes) == 0 {
		return Trend{}, ErrInsufficientData
	}
	slope := medianReference(slopes)
	agreePos := float64(pos) / float64(len(slopes))
	agreeNeg := float64(neg) / float64(len(slopes))
	agree := math.Max(agreePos, agreeNeg)
	sig := (slope > 0 && agreePos >= alpha) || (slope < 0 && agreeNeg >= alpha)
	intercept := medianReference(ys) - slope*medianReference(xs)
	return Trend{Slope: slope, Intercept: intercept, Significant: sig, Agreement: agree, N: n}, nil
}

// ranksReference is the pre-optimization rank kernel: fresh rank and index slices
// plus a sort.Slice (which allocates its closure and swapper) on every call.
// Rank vectors are independent of how ties are ordered internally, so it is
// bit-identical to the scratch-reusing kernel.
func ranksReference(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := (float64(i) + float64(j)) / 2.0
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg + 1
		}
		i = j + 1
	}
	return ranks
}

// spearmanReference is the pre-optimization Spearman: Pearson over freshly
// allocated rank vectors. Bit-identical to SpearmanBuf on the same input.
func spearmanReference(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 3 {
		return 0, ErrInsufficientData
	}
	return Pearson(ranksReference(xs), ranksReference(ys))
}
