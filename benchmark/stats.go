package main

import (
	"math"
	"sort"

	"daasscale/internal/stats"
)

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the -repeat
// table reads the same as the acceptance rule it is checked against.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		v := stats.Median(xs)
		return v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// sliceStat is a metric reduced over the slices of the measured window: the
// reported value and, printed beside it, what the slices looked like.
type sliceStat struct {
	val      float64 // the mean of the better half of the slices: the metric
	min, max float64
	median   float64 // the median slice
}

// reduceSlices is the estimator of every timing metric: the mean of the
// better half of the per-slice values (the faster ones; with an odd count
// the middle slice is in). Interference from outside the program is
// one-sided and comes in episodes of seconds — another tenant of the host
// on the disk or in the caches — so the slices it slowed are the worse
// ones, and as long as it held less than half the window the better half is
// the program alone. A slowdown of the program itself is in every slice and
// moves the number in full; one that leaves half the window's seconds
// untouched does not, and shows in the median slice, printed beside it
// together with the range.
func reduceSlices(per []float64, higherIsBetter bool) sliceStat {
	if len(per) == 0 {
		nan := math.NaN()
		return sliceStat{val: nan, min: nan, max: nan, median: nan}
	}
	s := append([]float64(nil), per...)
	sort.Float64s(s) // ascending: for a rate the better half is the upper one
	half := s[:(len(s)+1)/2]
	if higherIsBetter {
		half = s[len(s)/2:]
	}
	sum := 0.0
	for _, v := range half {
		sum += v
	}
	return sliceStat{val: sum / float64(len(half)), min: s[0], max: s[len(s)-1], median: stats.Median(s)}
}
