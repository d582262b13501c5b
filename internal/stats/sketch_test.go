package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// orderStatistic returns the exact 0-based k-th order statistic of xs by
// full sort — the oracle the sketch's rank convention is tested against.
func orderStatistic(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k]
}

// sketchOf builds a sketch over xs at the given accuracy.
func sketchOf(xs []float64, alpha float64) *Sketch {
	s := NewSketch(alpha)
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// assertWithinAccuracy fails unless v is within relative accuracy alpha of
// want (with a tiny epsilon for the FP slop of the log-bin mapping at bin
// edges, and absolute slop near the zero bucket).
func assertWithinAccuracy(t *testing.T, v, want, alpha float64, ctx string) {
	t.Helper()
	const edgeEps = 1e-9
	bound := alpha*math.Abs(want) + alpha*edgeEps + 2e-9
	if math.Abs(v-want) > bound {
		t.Errorf("%s: sketch value %v vs exact %v exceeds relative accuracy %v", ctx, v, want, alpha)
	}
}

func TestSketchQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	quantiles := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	dists := map[string]func() float64{
		"uniform":   func() float64 { return rng.Float64() * 1e5 },
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64() * 4) },
		"signed":    func() float64 { return rng.NormFloat64() * 1e3 },
		"tied":      func() float64 { return float64(rng.Intn(8)) * 100 },
		"tiny":      func() float64 { return rng.Float64() * 1e-6 },
	}
	for name, draw := range dists {
		for _, alpha := range []float64{0.005, 0.01, 0.05} {
			n := 1 + rng.Intn(4000)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw()
			}
			s := sketchOf(xs, alpha)
			if got := s.Count(); got != uint64(n) {
				t.Fatalf("%s: count = %d, want %d", name, got, n)
			}
			// Extremes are exact: quantileReference is the pre-optimization
			// oracle shared with the selection kernels.
			if s.min != quantileReference(xs, 0) || s.Max() != quantileReference(xs, 1) {
				t.Fatalf("%s: extremes not exact: [%v,%v]", name, s.min, s.Max())
			}
			for _, q := range quantiles {
				v := s.Quantile(q)
				// The sketch targets the order statistic at rank ⌈q·(n−1)⌉.
				k := int(math.Ceil(q * float64(n-1)))
				want := orderStatistic(xs, k)
				assertWithinAccuracy(t, v, want, alpha, name)
				// And the returned value never escapes the exact data range.
				if v < s.min || v > s.Max() {
					t.Errorf("%s: q=%v value %v outside [%v,%v]", name, q, v, s.min, s.Max())
				}
			}
		}
	}
}

// TestSketchVsQuantileSelectOracle pins the sketch against the exact
// interpolated quantile path (QuantileSelect / quantileReference): the
// sketch answer must lie within relative accuracy of the interval spanned
// by the two order statistics the exact path interpolates between.
func TestSketchVsQuantileSelectOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const alpha = 0.01
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Exp(rng.NormFloat64()*3) + 1
		}
		s := sketchOf(xs, alpha)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.95} {
			scratch := append([]float64(nil), xs...)
			exact := QuantileSelect(scratch, q)
			if ref := quantileReference(xs, q); exact != ref {
				t.Fatalf("oracle drift: QuantileSelect %v vs quantileReference %v", exact, ref)
			}
			lo := orderStatistic(xs, int(math.Floor(q*float64(n-1))))
			hi := orderStatistic(xs, int(math.Ceil(q*float64(n-1))))
			if exact < lo || exact > hi {
				t.Fatalf("exact quantile %v outside its order-statistic bracket [%v,%v]", exact, lo, hi)
			}
			v := s.Quantile(q)
			if v < lo*(1-alpha)-1e-9 || v > hi*(1+alpha)+1e-9 {
				t.Errorf("q=%v: sketch %v outside α-inflated bracket [%v,%v] around exact %v",
					q, v, lo*(1-alpha), hi*(1+alpha), exact)
			}
		}
	}
}

func TestSketchNaNContract(t *testing.T) {
	s := NewSketch(0.01)
	// Empty sketch: every quantile is NaN, like Quantile/QuantileSelect on
	// empty input.
	for _, q := range []float64{0, 0.5, 1, math.NaN()} {
		if !math.IsNaN(s.Quantile(q)) {
			t.Errorf("empty sketch Quantile(%v) = %v, want NaN", q, s.Quantile(q))
		}
	}
	s.Add(1)
	s.Add(2)
	s.Add(math.NaN())
	// NaN input is ignored and counted, never poisons a bin.
	if s.Count() != 2 || s.nans != 1 {
		t.Fatalf("count=%d nans=%d", s.Count(), s.nans)
	}
	if v := s.Quantile(0.5); math.IsNaN(v) {
		t.Error("NaN input poisoned the quantiles")
	}
	// Quantile(NaN) → NaN: the contract shared with Quantile and
	// QuantileSelect.
	if !math.IsNaN(s.Quantile(math.NaN())) {
		t.Error("Quantile(NaN) should be NaN")
	}
	if !math.IsNaN(Quantile([]float64{1, 2}, math.NaN())) || !math.IsNaN(QuantileSelect([]float64{1, 2}, math.NaN())) {
		t.Error("exact-path NaN contract changed under the sketch's feet")
	}
}

func TestSketchInfinitiesAndZeros(t *testing.T) {
	s := NewSketch(0.01)
	s.Add(math.Inf(-1))
	s.Add(-5)
	s.Add(0)
	s.Add(5e-10) // inside the zero bucket
	s.Add(5)
	s.Add(math.Inf(1))
	if s.Count() != 6 {
		t.Fatalf("count = %d", s.Count())
	}
	if !math.IsInf(s.Quantile(0), -1) || !math.IsInf(s.Quantile(1), 1) {
		t.Errorf("extreme quantiles: %v %v", s.Quantile(0), s.Quantile(1))
	}
	if v := s.Quantile(0.5); v != 0 {
		t.Errorf("median = %v, want exact 0 from the zero bucket", v)
	}
	// Rank ⌈0.2·5⌉ = 1 hits the negative store: within α of −5.
	if v := s.Quantile(0.2); v >= -4.9 || v <= -5.1 {
		t.Errorf("low quantile = %v, want ≈ −5", v)
	}
}

func sketchBytes(t testing.TB, s *Sketch) []byte {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSketchMergeCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mk := func(n int, scale float64) *Sketch {
		s := NewSketch(0.01)
		for i := 0; i < n; i++ {
			s.Add(rng.NormFloat64() * scale)
		}
		return s
	}
	a, b, c := mk(500, 1), mk(700, 1e4), mk(300, 1e-3)
	clone := func(s *Sketch) *Sketch {
		out := NewSketch(s.alpha)
		if err := out.Merge(s); err != nil {
			t.Fatal(err)
		}
		return out
	}

	ab := clone(a)
	if err := ab.Merge(b); err != nil {
		t.Fatal(err)
	}
	ba := clone(b)
	if err := ba.Merge(a); err != nil {
		t.Fatal(err)
	}
	// Commutativity, bit for bit: the deterministic encoding is the
	// equality witness.
	if !bytes.Equal(sketchBytes(t, ab), sketchBytes(t, ba)) {
		t.Error("merge is not commutative bit-for-bit")
	}

	abc1 := clone(ab) // (a∪b)∪c
	if err := abc1.Merge(c); err != nil {
		t.Fatal(err)
	}
	bc := clone(b)
	if err := bc.Merge(c); err != nil {
		t.Fatal(err)
	}
	abc2 := clone(a) // a∪(b∪c)
	if err := abc2.Merge(bc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sketchBytes(t, abc1), sketchBytes(t, abc2)) {
		t.Error("merge is not associative bit-for-bit")
	}

	// Merged sketch ≡ sketch of concatenated stream.
	all := NewSketch(0.01)
	if err := all.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := all.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := all.Merge(c); err != nil {
		t.Fatal(err)
	}
	if all.Count() != a.Count()+b.Count()+c.Count() {
		t.Error("merged count wrong")
	}

	// Accuracy mismatch is an error, not silent corruption.
	if err := clone(a).Merge(NewSketch(0.05)); err == nil {
		t.Error("merging mismatched accuracies should fail")
	}
}

// TestSketchShardingInvariance is the determinism property the fleet
// pipeline builds on: however a stream is split into shards, merging the
// per-shard sketches yields bit-identical state.
func TestSketchShardingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64() * 5)
	}
	whole := sketchOf(xs, 0.01)
	for _, shard := range []int{1, 7, 64, 999, 5000} {
		merged := NewSketch(0.01)
		for lo := 0; lo < len(xs); lo += shard {
			hi := lo + shard
			if hi > len(xs) {
				hi = len(xs)
			}
			if err := merged.Merge(sketchOf(xs[lo:hi], 0.01)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(sketchBytes(t, whole), sketchBytes(t, merged)) {
			t.Errorf("shard size %d: merged sketch differs from whole-stream sketch", shard)
		}
	}
}

func TestSketchBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := NewSketch(0.02)
	for i := 0; i < 2000; i++ {
		s.Add(rng.NormFloat64() * 1e6)
	}
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	s.Add(0)
	enc := sketchBytes(t, s)
	var back Sketch
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, sketchBytes(t, &back)) {
		t.Error("round trip not bit-identical")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		a, b := s.Quantile(q), back.Quantile(q)
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Errorf("q=%v: %v vs %v after round trip", q, a, b)
		}
	}
	// Corrupt inputs are rejected.
	if err := new(Sketch).UnmarshalBinary(enc[:10]); err == nil {
		t.Error("truncated encoding accepted")
	}
	if err := new(Sketch).UnmarshalBinary(append(append([]byte(nil), enc...), 1)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if err := new(Sketch).UnmarshalBinary(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

// rawSketch is a sketch's wire fields, for hand-building encodings that
// MarshalBinary never produces.
type rawSketch struct {
	alpha                             float64
	count, nans, zero, posInf, negInf uint64
	min, max                          float64
	pos, neg                          [][2]uint64 // (key as uint32, count)
}

func (r rawSketch) encode() []byte {
	buf := binary.LittleEndian.AppendUint32(nil, sketchMagic)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.alpha))
	for _, v := range []uint64{r.count, r.nans, r.zero, r.posInf, r.negInf, math.Float64bits(r.min), math.Float64bits(r.max)} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for _, bins := range [][][2]uint64{r.pos, r.neg} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(bins)))
		for _, b := range bins {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(b[0]))
			buf = binary.LittleEndian.AppendUint64(buf, b[1])
		}
	}
	return buf
}

// TestSketchDecodeRefusesNonCanonical: UnmarshalBinary accepts only bytes
// MarshalBinary can produce. A NaN accuracy used to decode (and poison
// every quantile), and a repeated bin key used to decode with the last
// count winning, so count no longer matched the bins and re-encoding gave
// different bytes.
func TestSketchDecodeRefusesNonCanonical(t *testing.T) {
	valid := rawSketch{
		alpha: 0.01, count: 5, nans: 1, zero: 1, posInf: 1, min: 0, max: math.Inf(1),
		pos: [][2]uint64{{10, 1}, {20, 1}}, neg: [][2]uint64{{3, 1}},
	}
	enc := valid.encode()
	var s Sketch
	if err := s.UnmarshalBinary(enc); err != nil {
		t.Fatalf("valid encoding refused: %v", err)
	}
	if !bytes.Equal(sketchBytes(t, &s), enc) {
		t.Fatal("valid encoding does not re-encode to itself")
	}
	negKey := uint64(uint32(math.MaxUint32)) // key -1
	for name, mutate := range map[string]func(r *rawSketch){
		"NaN accuracy":       func(r *rawSketch) { r.alpha = math.NaN() },
		"zero accuracy":      func(r *rawSketch) { r.alpha = 0 },
		"accuracy one":       func(r *rawSketch) { r.alpha = 1 },
		"negative accuracy":  func(r *rawSketch) { r.alpha = -0.01 },
		"repeated key":       func(r *rawSketch) { r.pos = [][2]uint64{{10, 1}, {10, 1}} },
		"descending keys":    func(r *rawSketch) { r.pos = [][2]uint64{{20, 1}, {10, 1}} },
		"descending neg key": func(r *rawSketch) { r.neg = [][2]uint64{{3, 1}, {negKey, 1}}; r.count = 6 },
		"empty bin":          func(r *rawSketch) { r.pos = [][2]uint64{{10, 2}, {20, 0}} },
		"count too high":     func(r *rawSketch) { r.count = 6 },
		"count too low":      func(r *rawSketch) { r.count = 4 },
		"count wraps":        func(r *rawSketch) { r.posInf = math.MaxUint64 - 3; r.count = 0 },
	} {
		r := valid
		mutate(&r)
		if err := new(Sketch).UnmarshalBinary(r.encode()); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A refused decode leaves the receiver alone.
	bad := valid
	bad.count = 6
	if err := s.UnmarshalBinary(bad.encode()); err == nil || !bytes.Equal(sketchBytes(t, &s), enc) {
		t.Errorf("refused decode (err %v) changed the sketch", err)
	}
}

// FuzzDecodeSketch holds the sketch decoder to its contract: no input
// panics, and any input that decodes re-encodes to the same bytes.
func FuzzDecodeSketch(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for _, alpha := range []float64{0.01, 0.05} {
		s := NewSketch(alpha)
		f.Add(sketchBytes(f, s))
		for i := 0; i < 50; i++ {
			s.Add(rng.NormFloat64() * 1e3)
		}
		s.Add(0)
		s.Add(math.Inf(-1))
		s.Add(math.NaN())
		f.Add(sketchBytes(f, s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sketch
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		got, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("sketch re-encodes to different bytes\nin  %x\nout %x", data, got)
		}
	})
}

func TestSketchCDFApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = rng.Float64() * 1e4
	}
	s := sketchOf(xs, 0.01)
	cdf := s.CDFApprox()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	last := CDFPoint{Value: math.Inf(-1)}
	for _, p := range cdf {
		if p.Value <= last.Value || p.Fraction < last.Fraction {
			t.Fatalf("CDF not monotone at %+v after %+v", p, last)
		}
		last = p
	}
	if last.Fraction != 1 {
		t.Errorf("CDF ends at %v, want 1", last.Fraction)
	}
	// The approximate CDF agrees with the exact one to sketch resolution:
	// CDFAt of a mid-range probe within a few percent.
	exact := CDF(xs)
	for _, v := range []float64{1e3, 5e3, 9e3} {
		got, want := CDFAt(cdf, v), CDFAt(exact, v)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("CDFAt(%v) = %v, exact %v", v, got, want)
		}
	}
	if got := NewSketch(0.01).CDFApprox(); got != nil {
		t.Errorf("empty sketch CDF = %v", got)
	}
}

func TestSketchDefaultAccuracy(t *testing.T) {
	for _, bad := range []float64{0, -1, 1, 2} {
		if got := NewSketch(bad).Accuracy(); got != DefaultSketchAccuracy {
			t.Errorf("NewSketch(%v).Accuracy() = %v", bad, got)
		}
	}
	if got := NewSketch(0.03).Accuracy(); got != 0.03 {
		t.Errorf("accuracy not kept: %v", got)
	}
}
