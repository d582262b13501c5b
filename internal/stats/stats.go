// Package stats implements the statistically-robust estimators the paper's
// telemetry manager relies on (Section 3): median and quantile aggregation
// with a 50% breakdown point, the Theil–Sen estimator for robust linear
// trends (breakdown point 29%), and Spearman rank correlation for monotone
// dependence between signals. Non-robust counterparts (mean, least-squares
// regression, Pearson correlation) are included for the ablation benchmarks
// that demonstrate why the robust variants were chosen.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an estimator is given fewer
// observations than it needs.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs. It has a breakdown point of 0: a
// single arbitrarily-large outlier moves it arbitrarily far.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (breakdown point 50%, the maximum
// possible). For an even count it returns the midpoint of the two central
// order statistics. xs is not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile of xs (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. xs is not modified. Returns NaN
// for empty input and for q = NaN. It is a thin copying wrapper over QuantileSelect; hot
// paths that own their slice should call QuantileSelect directly.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	return QuantileSelect(s, q)
}

// Trend is the outcome of a trend estimation over a time series.
type Trend struct {
	// Slope is the estimated slope (units of y per unit of x).
	Slope float64
	// Intercept completes the trend line y = Slope·x + Intercept. For
	// Theil–Sen this is median(y) − Slope·median(x).
	Intercept float64
	// Significant reports whether the trend passed the sign-agreement test:
	// at least Alpha of the pairwise slopes share the slope's sign.
	Significant bool
	// Agreement is the largest fraction of pairwise slopes sharing a sign
	// (positive or negative); 0 when no pairs exist.
	Agreement float64
	// N is the number of observations used.
	N int
}

// DefaultTrendAlpha is the sign-agreement fraction the paper found to work
// well in practice (α = 70%, Section 3.2.1).
const DefaultTrendAlpha = 0.70

// TheilSen estimates a robust linear trend of ys over xs using the
// Theil–Sen estimator: the median of all pairwise slopes. The trend is
// marked Significant only when at least alpha of the pairwise slopes are
// positive, or at least alpha are negative (the paper's acceptance test).
// Pairs with identical x are skipped. Requires at least 3 points. It is a
// thin wrapper over TheilSenBuf with a throwaway slope buffer; hot paths
// should hold a buffer and call TheilSenBuf.
func TheilSen(xs, ys []float64, alpha float64) (Trend, error) {
	var buf []float64
	return TheilSenBuf(xs, ys, alpha, &buf)
}

// LeastSquares fits a line by ordinary least squares and reports R² as the
// Agreement field. It is the non-robust baseline for the trend ablation: a
// single large outlier can flip its slope (breakdown point 0). The trend is
// Significant when R² ≥ alpha.
func LeastSquares(xs, ys []float64, alpha float64) (Trend, error) {
	if len(xs) != len(ys) {
		return Trend{}, errors.New("stats: LeastSquares requires equal-length series")
	}
	n := len(xs)
	if n < 3 {
		return Trend{}, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Trend{}, ErrInsufficientData
	}
	slope := sxy / sxx
	var r2 float64
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return Trend{
		Slope:       slope,
		Intercept:   my - slope*mx,
		Significant: r2 >= alpha && slope != 0,
		Agreement:   r2,
		N:           n,
	}, nil
}

// Pearson returns the Pearson product-moment correlation coefficient of xs
// and ys. Returns 0 when either series has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: Pearson requires equal-length series")
	}
	if len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, syy, sxy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns Spearman's rank correlation coefficient ρ: the Pearson
// coefficient computed on the ranks of xs and ys (Section 3.2.2). ρ detects
// any monotone dependence, not just linear, and ranking bounds the influence
// of outliers. It is a thin wrapper over SpearmanBuf with throwaway rank
// scratch; hot paths should hold a SpearmanScratch and call SpearmanBuf.
func Spearman(xs, ys []float64) (float64, error) {
	var sc SpearmanScratch
	return SpearmanBuf(xs, ys, &sc)
}

// CDFPoint is one point of an empirical cumulative distribution: Fraction of
// the observations are ≤ Value.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical CDF of xs evaluated at each distinct value.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out []CDFPoint
	n := float64(len(s))
	for i := 0; i < len(s); {
		j := i
		for j+1 < len(s) && s[j+1] == s[i] {
			j++
		}
		out = append(out, CDFPoint{Value: s[i], Fraction: float64(j+1) / n})
		i = j + 1
	}
	return out
}

// CDFAt returns the fraction of observations ≤ v in the empirical CDF.
// cdf must be sorted ascending by Value (as CDF returns it); the lookup is
// a binary search, so per-threshold probes during fleet calibration are
// O(log n) instead of a linear scan.
func CDFAt(cdf []CDFPoint, v float64) float64 {
	i := sort.Search(len(cdf), func(j int) bool { return cdf[j].Value > v })
	if i == 0 {
		return 0
	}
	return cdf[i-1].Fraction
}

// Bucket is one bin of a histogram over [Lo, Hi) holding Count observations.
type Bucket struct {
	Lo, Hi float64
	Count  int
}

// Histogram buckets xs into bins with the given upper edges. Values above
// the last edge land in a final overflow bucket with Hi = +Inf. Edges must
// be strictly increasing.
func Histogram(xs []float64, edges []float64) []Bucket {
	buckets := make([]Bucket, len(edges)+1)
	lo := math.Inf(-1)
	for i, e := range edges {
		buckets[i] = Bucket{Lo: lo, Hi: e}
		lo = e
	}
	buckets[len(edges)] = Bucket{Lo: lo, Hi: math.Inf(1)}
	for _, x := range xs {
		i := sort.SearchFloat64s(edges, x)
		if i < len(edges) && x == edges[i] {
			i++ // upper edge is exclusive: value equal to edge goes right
		}
		buckets[i].Count++
	}
	return buckets
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
