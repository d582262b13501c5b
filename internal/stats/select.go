// Selection-based order-statistic kernels for the per-tenant telemetry hot
// path. The sort-based Quantile/Median copy their input and pay an
// O(n log n) sort per call; at fleet scale the telemetry manager computes a
// dozen medians per tenant per billing interval, so the copies and sorts
// dominate. QuantileSelect and MedianInPlace reorder a caller-owned slice
// with introselect — expected O(n), no allocation — and return values that
// are bit-identical to the sort-based path (the same order statistics fed
// through the same interpolation expression), which the property tests in
// select_test.go assert on random, tied and adversarial inputs.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// MedianInPlace returns the median of xs, reordering xs. It is
// bit-identical to Median on the same multiset of values. Returns NaN for
// empty input. NaNs in the input make the result unspecified (as with
// Median).
func MedianInPlace(xs []float64) float64 {
	return QuantileSelect(xs, 0.5)
}

// QuantileSelect returns the q-quantile of xs (0 ≤ q ≤ 1) with the same
// linear interpolation between order statistics as Quantile, but selects
// the needed order statistics in place with introselect instead of sorting
// a copy: expected O(n), zero allocations, xs reordered. Returns NaN for
// empty input and for q = NaN (a NaN quantile slips past both clamps, and
// int(math.Floor(NaN)) would otherwise index out of range). NaN values in
// xs never panic but make the result unspecified, as with Median.
func QuantileSelect(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		m := xs[0]
		for _, v := range xs[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	if q >= 1 {
		m := xs[0]
		for _, v := range xs[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	selectKth(xs, lo)
	if lo == hi {
		return xs[lo]
	}
	// hi == lo+1: after selection everything right of lo is ≥ xs[lo], so
	// the next order statistic is the minimum of that suffix.
	hiVal := xs[hi]
	for _, v := range xs[hi+1:] {
		if v < hiVal {
			hiVal = v
		}
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + hiVal*frac
}

// QuantileSelectUnordered returns exactly QuantileSelect's value — the same
// order statistics fed through the same interpolation expression — but
// leaves xs in an unspecified order, which frees it to partition with the
// Hoare scheme: Hoare swaps only wrong-sided pairs, where the Lomuto scheme
// in selectKth swaps every element below the pivot — for a high quantile
// such as P95 that is nearly the whole range on the first pass. From
// sampledSelectMin elements on, a sampled bracket (bracketOrderStat) first
// narrows the Hoare select to about a tenth of xs. Callers whose slice is
// dead or reset after the call (the engine's per-interval P95) use this;
// callers whose later arithmetic consumes the slice in its post-selection
// order (run-level Finalize, which sums for the mean after selecting) must
// keep QuantileSelect, whose permutation is deterministic. The returned
// value is algorithm-independent: which elements are the k-th and (k+1)-th
// order statistics of a multiset does not depend on how they are selected.
func QuantileSelectUnordered(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 || q >= 1 || n == 1 {
		return QuantileSelect(xs, q)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	hiVal := math.Inf(1) // the smallest value beyond xs, once narrowed
	if n >= sampledSelectMin {
		var below int
		xs, below, hiVal = bracketOrderStat(xs, lo)
		lo, hi = lo-below, hi-below
	}
	selectKthHoare(xs, lo)
	if lo == hi {
		return xs[lo]
	}
	// hi == lo+1: after selection everything right of lo is ≥ xs[lo], so
	// the next order statistic is the minimum of that suffix and hiVal.
	for _, v := range xs[hi:] {
		if v < hiVal {
			hiVal = v
		}
	}
	return xs[lo]*(1-frac) + hiVal*frac
}

const (
	// sampledSelectMin is the length from which QuantileSelectUnordered
	// brackets its rank; below it the sample costs more than it saves.
	sampledSelectMin = 512
	// selectSample is the bracket's sample size, held in a stack array.
	selectSample = 128
)

// bracketOrderStat is Floyd–Rivest's sampled bracket without the RNG: a
// strided sample of xs gives pivots a ~3σ margin either side of rank k, and
// one pass counts the elements below the lower pivot, swap-compacts those
// within [lower, upper] to the front and keeps the smallest one above. It
// returns the candidates, how many elements rank below them and that
// smallest value above (+Inf if none). A bracket that misses rank k, or a
// NaN pivot, yields all of xs, below 0: the pass only permuted it.
func bracketOrderStat(xs []float64, k int) (cand []float64, below int, above float64) {
	n := len(xs)
	var s [selectSample]float64
	for j := range s {
		s[j] = xs[j*n/selectSample]
	}
	// The sample rank of xs's k-th order statistic is binomial with mean r.
	r := float64(k) * selectSample / float64(n)
	d := 3*math.Sqrt(r*(1-r/selectSample)) + 1
	a, b := int(math.Floor(r-d)), int(math.Ceil(r+d))
	lower, upper := math.Inf(-1), math.Inf(1)
	if a >= 0 {
		selectKthHoare(s[:], a)
		lower = s[a]
	}
	if b < selectSample {
		selectKthHoare(s[:], b)
		upper = s[b]
	}
	if math.IsNaN(lower) || math.IsNaN(upper) {
		return xs, 0, math.Inf(1)
	}
	c, over := 0, 0
	above = math.Inf(1)
	for i, v := range xs {
		if v > upper {
			over++
			above = min(above, v)
			continue
		}
		// Branch-free on the lower side, which a high quantile's pass
		// takes for most elements in an unpredictable order.
		xs[i], xs[c] = xs[c], v
		in := 1
		if v < lower {
			in = 0
		}
		c += in
	}
	below = n - over - c
	if k < below || k >= below+c {
		return xs, 0, math.Inf(1)
	}
	return xs[:c], below, above
}

// selectKthHoare is selectKth with Hoare partitioning: same postcondition
// (xs[k] is the k-th order statistic, prefix ≤, suffix ≥), different — and
// unspecified — final order elsewhere. Median-of-three pivot selection
// doubles as the sentinel guard (xs[lo] ≤ pivot ≤ xs[hi]), so the inner
// scans need no bounds checks beyond the crossing test.
func selectKthHoare(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	depth := 2 * bits.Len(uint(len(xs)))
	for hi > lo {
		if hi-lo < 12 {
			insertionSort(xs, lo, hi)
			return
		}
		if depth == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		depth--
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] ≤ pivot ≤ xs[i..hi]; anything strictly between j and i
		// equals the pivot and is already in final position.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// selectKth partially sorts xs so that xs[k] holds the k-th order statistic
// (0-based), everything before it is ≤ xs[k] and everything after is ≥
// xs[k]. Introselect: quickselect with a median-of-three pivot, an
// insertion-sort base case, and a full sort of the remaining range once the
// recursion depth budget is exhausted (which bounds the worst case at
// O(n log n) even on adversarial inputs such as all-equal runs).
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	depth := 2 * bits.Len(uint(len(xs)))
	for hi > lo {
		if hi-lo < 12 {
			insertionSort(xs, lo, hi)
			return
		}
		if depth == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		depth--
		p := partitionMedian3(xs, lo, hi)
		switch {
		case k < p:
			hi = p - 1
		case k > p:
			lo = p + 1
		default:
			return
		}
	}
}

// partitionMedian3 partitions xs[lo..hi] around the median of the first,
// middle and last elements and returns the pivot's final index.
func partitionMedian3(xs []float64, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	xs[mid], xs[hi] = xs[hi], xs[mid] // pivot to the end
	pivot := xs[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi] = xs[hi], xs[i]
	return i
}

func insertionSort(xs []float64, lo, hi int) {
	for i := lo + 1; i <= hi; i++ {
		v := xs[i]
		j := i - 1
		for j >= lo && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
