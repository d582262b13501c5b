// Buffered variants of the derived-signal estimators. TheilSen and
// Spearman are the expensive kernels of telemetry.Manager.Signals(): three
// Theil–Sen fits and four Spearman correlations per tenant per billing
// interval. The plain functions allocate a pairwise-slope slice (TheilSen)
// and rank/index slices (Spearman) on every call; the *Buf variants reuse
// caller-owned scratch so a warm caller performs zero heap allocations.
// Results are bit-identical to the plain functions (asserted by the
// property tests): the same slope/rank multisets flow through the same
// median and Pearson arithmetic.
package stats

import (
	"errors"
	"math"
	"math/bits"
)

// ErrLengthMismatch is returned when paired series have different lengths.
var ErrLengthMismatch = errors.New("stats: paired series must have equal length")

// TheilSenBuf is TheilSen with a caller-owned scratch buffer: the pairwise
// slopes are accumulated into *buf (grown once, then reused across calls)
// and the median selections run in place, so a warm caller allocates
// nothing. xs and ys are not modified; *buf is reordered and resized. The
// returned Trend is bit-identical to TheilSen's on the same input.
func TheilSenBuf(xs, ys []float64, alpha float64, buf *[]float64) (Trend, error) {
	if len(xs) != len(ys) {
		return Trend{}, ErrLengthMismatch
	}
	n := len(xs)
	if n < 3 {
		return Trend{}, ErrInsufficientData
	}
	need := n * (n - 1) / 2
	s := *buf
	if cap(s) < need {
		s = make([]float64, 0, need)
	}
	slopes := s[:0]
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
	*buf = slopes[:0]
	if len(slopes) == 0 {
		return Trend{}, ErrInsufficientData
	}
	slope := MedianInPlace(slopes)
	agreePos := float64(pos) / float64(len(slopes))
	agreeNeg := float64(neg) / float64(len(slopes))
	agree := math.Max(agreePos, agreeNeg)
	sig := (slope > 0 && agreePos >= alpha) || (slope < 0 && agreeNeg >= alpha)
	// Reuse the slope buffer (cap ≥ n(n-1)/2 ≥ n for n ≥ 3) for the median
	// copies the intercept needs; Median would copy and sort instead.
	med := append(slopes[:0], ys...)
	my := MedianInPlace(med)
	med = append(med[:0], xs...)
	mx := MedianInPlace(med)
	intercept := my - slope*mx
	return Trend{Slope: slope, Intercept: intercept, Significant: sig, Agreement: agree, N: n}, nil
}

// SpearmanScratch holds the rank and index scratch SpearmanBuf reuses
// across calls. The zero value is ready to use; buffers grow to the series
// length on first use and are retained.
type SpearmanScratch struct {
	rx, ry []float64
	idx    []int
}

// SpearmanBuf is Spearman with caller-owned rank/index scratch: ranks are
// computed into sc's buffers instead of freshly allocated slices, so a warm
// caller allocates nothing. xs and ys are not modified. The result is
// bit-identical to Spearman's on the same input.
func SpearmanBuf(xs, ys []float64, sc *SpearmanScratch) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 3 {
		return 0, ErrInsufficientData
	}
	sc.rx = ranksInto(sc.rx, xs, &sc.idx)
	sc.ry = ranksInto(sc.ry, ys, &sc.idx)
	return Pearson(sc.rx, sc.ry)
}

// ranksInto computes fractional ranks (1-based, ties get the average of
// the ranks they span — the ranking Spearman uses) into dst (resized
// to len(xs)), using *idxBuf as index scratch. Rank values are independent
// of how ties are ordered internally, so any stable-or-not sort of the
// index slice yields the identical rank vector.
func ranksInto(dst []float64, xs []float64, idxBuf *[]int) []float64 {
	n := len(xs)
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	idx := *idxBuf
	if cap(idx) < n {
		idx = make([]int, n)
	} else {
		idx = idx[:n]
	}
	*idxBuf = idx
	for i := range idx {
		idx[i] = i
	}
	sortIdxByKeys(idx, xs, 2*bits.Len(uint(n)))
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i) + float64(j)) / 2.0
		for k := i; k <= j; k++ {
			dst[idx[k]] = avg + 1
		}
		i = j + 1
	}
	return dst
}

// sortIdxByKeys sorts idx ascending by keys[idx[i]] without allocating
// (sort.Slice would allocate its closure and swapper). Quicksort with a
// median-of-three pivot, insertion sort below 12 elements, and an
// insertion-sort fallback when the depth budget runs out.
func sortIdxByKeys(idx []int, keys []float64, depth int) {
	for len(idx) > 12 {
		if depth == 0 {
			break
		}
		depth--
		lo, hi := 0, len(idx)-1
		mid := int(uint(lo+hi) >> 1)
		if keys[idx[mid]] < keys[idx[lo]] {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if keys[idx[hi]] < keys[idx[lo]] {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if keys[idx[hi]] < keys[idx[mid]] {
			idx[hi], idx[mid] = idx[mid], idx[hi]
		}
		idx[mid], idx[hi] = idx[hi], idx[mid]
		pivot := keys[idx[hi]]
		i := lo
		for j := lo; j < hi; j++ {
			if keys[idx[j]] < pivot {
				idx[i], idx[j] = idx[j], idx[i]
				i++
			}
		}
		idx[i], idx[hi] = idx[hi], idx[i]
		// Recurse into the smaller half, loop on the larger.
		if i < len(idx)-i-1 {
			sortIdxByKeys(idx[:i], keys, depth)
			idx = idx[i+1:]
		} else {
			sortIdxByKeys(idx[i+1:], keys, depth)
			idx = idx[:i]
		}
	}
	// Insertion sort: the base case and the depth-exhaustion fallback.
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		j := i - 1
		for j >= 0 && keys[idx[j]] > keys[v] {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
}
