// Sketch is the mergeable streaming quantile summary behind the fleet-scale
// calibration path. The exact kernels in select.go need every sample in RAM
// (QuantileSelect reorders a full slice); at 100k–1M tenants the fleet's
// wait samples and inter-event intervals no longer fit, so the streaming
// pipeline summarizes each shard into a Sketch and merges the shards.
//
// The sketch is DDSketch-style: logarithmically-spaced bins with a fixed
// relative accuracy α. A value x > 0 lands in bin ⌈log_γ(x)⌉ with
// γ = (1+α)/(1−α); the bin's representative 2γ^i/(γ+1) is within relative α
// of every value in the bin, so any quantile query returns a value within
// relative α of the corresponding exact order statistic (the property tests
// assert this against the sort-based oracles). Negative values mirror into
// a second bin store, near-zero values collapse into an exact zero bucket,
// and ±Inf occupy dedicated overflow buckets, so Add is total over float64
// except NaN (ignored and counted, matching the Quantile*(NaN) → NaN
// contract: a NaN never silently poisons a bin).
//
// Chosen over t-digest deliberately: a t-digest's centroids depend on
// insertion and merge order, so parallel shard merges are only
// approximately reproducible. Here Merge adds integer bin counts — exactly
// commutative and associative — so any shard size, worker count or merge
// tree produces bit-identical state, which is what lets the fleet pipeline
// promise "same bytes at any -workers" and makes checkpoint/resume exact.
package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// DefaultSketchAccuracy is the relative accuracy α used when callers pass
// a non-positive value: 1% relative error on quantile values, a few
// thousand bins for the dynamic ranges the fleet produces.
const DefaultSketchAccuracy = 0.01

// ErrSketchMismatch is returned when merging sketches with different
// accuracy parameters; their bins are not aligned and cannot be added.
var ErrSketchMismatch = errors.New("stats: sketch accuracy mismatch")

// sketchZeroEps is the magnitude below which values collapse into the exact
// zero bucket: the log-bin index of tiny magnitudes diverges, and fleet
// telemetry treats sub-nanosecond waits as zero anyway. Quantiles that land
// in the zero bucket return exactly 0 (absolute error ≤ sketchZeroEps).
const sketchZeroEps = 1e-9

// Sketch is a mergeable quantile summary with bounded relative error.
// The zero value is not usable; construct with NewSketch. Not safe for
// concurrent mutation.
type Sketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	pos, neg map[int32]uint64 // log-spaced bins for |x| > sketchZeroEps
	zero     uint64           // |x| ≤ sketchZeroEps
	posInf   uint64
	negInf   uint64

	count uint64 // all non-NaN observations
	nans  uint64 // NaN observations (ignored by quantiles)

	min, max float64 // exact extremes over non-NaN observations
}

// NewSketch builds a sketch with relative accuracy alpha (0 < alpha < 1);
// non-positive values select DefaultSketchAccuracy.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 {
		alpha = DefaultSketchAccuracy
	}
	if alpha >= 1 {
		alpha = DefaultSketchAccuracy
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		pos:     make(map[int32]uint64),
		neg:     make(map[int32]uint64),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Accuracy returns the sketch's relative accuracy α.
func (s *Sketch) Accuracy() float64 { return s.alpha }

// Count returns the number of non-NaN observations.
func (s *Sketch) Count() uint64 { return s.count }

// Bins returns the number of occupied log-spaced bins — the sketch's memory
// footprint is proportional to this, independent of Count.
func (s *Sketch) Bins() int { return len(s.pos) + len(s.neg) }

// Max returns the exact maximum observation (NaN when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.max
}

// key maps a positive magnitude to its log-bin index.
func (s *Sketch) key(x float64) int32 {
	return int32(math.Ceil(math.Log(x) / s.lnGamma))
}

// representative returns the canonical value of bin i: 2γ^i/(γ+1), within
// relative α of every value the bin covers (γ^(i−1), γ^i].
func (s *Sketch) representative(i int32) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Add observes one value. NaN is counted separately and otherwise ignored;
// ±Inf land in dedicated overflow buckets.
func (s *Sketch) Add(x float64) { s.AddN(x, 1) }

// AddN observes a value n times (merge-grade bulk insert).
func (s *Sketch) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	if math.IsNaN(x) {
		s.nans += n
		return
	}
	s.count += n
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	switch {
	case math.IsInf(x, 1):
		s.posInf += n
	case math.IsInf(x, -1):
		s.negInf += n
	case x > sketchZeroEps:
		s.pos[s.key(x)] += n
	case x < -sketchZeroEps:
		s.neg[s.key(-x)] += n
	default:
		s.zero += n
	}
}

// Merge adds o's observations into s. Bin counts add exactly, so Merge is
// commutative and associative bit-for-bit: any merge order over any
// sharding of the same observations yields identical sketch state. o is not
// modified. Merging sketches with different accuracies fails.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("%w: %v vs %v", ErrSketchMismatch, s.alpha, o.alpha)
	}
	for k, c := range o.pos {
		s.pos[k] += c
	}
	for k, c := range o.neg {
		s.neg[k] += c
	}
	s.zero += o.zero
	s.posInf += o.posInf
	s.negInf += o.negInf
	s.count += o.count
	s.nans += o.nans
	if o.count > 0 {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	return nil
}

// sortedKeys returns the map's keys ascending. Quantile walks bins in value
// order, so map iteration order never influences a query.
func sortedKeys(m map[int32]uint64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Quantile returns a value within relative accuracy α of the exact
// q-quantile's order statistic: it locates the k-th order statistic with
// k = ⌈q·(n−1)⌉ and returns its bin's representative, clamped to the exact
// [Min, Max]. Returns NaN for an empty sketch and for q = NaN (the
// Quantile*(NaN) → NaN contract); q ≤ 0 and q ≥ 1 return the exact Min and
// Max.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// 0-based target rank within the sorted observations.
	rank := uint64(math.Ceil(q * float64(s.count-1)))
	v, ok := s.valueAtRank(rank)
	if !ok {
		return s.max
	}
	// The bin representative can stick out past the exact extremes; the
	// extremes are tracked exactly, so clamp.
	return Clamp(v, s.min, s.max)
}

// CDFApprox returns an approximate empirical CDF: one point per occupied
// bin (value = the bin's lower value bound, fraction = cumulative count).
// The points are ascending in value and end at fraction 1, so they drop
// into every consumer of stats.CDF — at sketch resolution instead of
// sample resolution. Using each bin's lower bound makes CDFAt at any
// observed sample value include that sample's own bin, so probes at exact
// data points (the IEI multiples of 5 minutes, say) never read as zero.
func (s *Sketch) CDFApprox() []CDFPoint {
	if s.count == 0 {
		return nil
	}
	out := make([]CDFPoint, 0, s.Bins()+3)
	var cum uint64
	total := float64(s.count)
	add := func(v float64, c uint64) {
		if c == 0 {
			return
		}
		cum += c
		out = append(out, CDFPoint{Value: v, Fraction: float64(cum) / total})
	}
	add(math.Inf(-1), s.negInf)
	negKeys := sortedKeys(s.neg)
	for i := len(negKeys) - 1; i >= 0; i-- { // most-negative value first
		// A negative bin with key k holds values in [-γ^k, -γ^(k-1));
		// emit the lower bound -γ^k (see the positive-bin comment below).
		add(-math.Pow(s.gamma, float64(negKeys[i])), s.neg[negKeys[i]])
	}
	add(0, s.zero)
	for _, k := range sortedKeys(s.pos) {
		// A positive bin with key k holds values in (γ^(k-1), γ^k]. Emit
		// the bin's lower value bound rather than its representative:
		// CDFAt includes points with Value ≤ the probe, so probing at any
		// observed sample value then always counts that sample's own bin
		// (the CDF never under-reports at observed values; the overcount
		// is at most the within-bin mass, i.e. sketch resolution). With a
		// representative, a probe at a value in the lower half of its bin
		// — e.g. an exact IEI of 5 minutes — would miss its own mass.
		add(math.Pow(s.gamma, float64(k-1)), s.pos[k])
	}
	add(math.Inf(1), s.posInf)
	return out
}

// valueAtRank walks the bins in ascending value order until the cumulative
// count covers the 0-based rank.
func (s *Sketch) valueAtRank(rank uint64) (float64, bool) {
	var cum uint64
	if s.negInf > 0 {
		cum += s.negInf
		if rank < cum {
			return math.Inf(-1), true
		}
	}
	negKeys := sortedKeys(s.neg)
	for i := len(negKeys) - 1; i >= 0; i-- {
		cum += s.neg[negKeys[i]]
		if rank < cum {
			return -s.representative(negKeys[i]), true
		}
	}
	if s.zero > 0 {
		cum += s.zero
		if rank < cum {
			return 0, true
		}
	}
	for _, k := range sortedKeys(s.pos) {
		cum += s.pos[k]
		if rank < cum {
			return s.representative(k), true
		}
	}
	if s.posInf > 0 {
		cum += s.posInf
		if rank < cum {
			return math.Inf(1), true
		}
	}
	return 0, false
}

// --- serialization ---------------------------------------------------------

// sketchMagic versions the binary encoding of a sketch.
const sketchMagic = uint32(0x444b5331) // "DKS1"

// MarshalBinary encodes the sketch deterministically: bins are written in
// sorted index order, floats as IEEE-754 bits, so equal sketch states
// produce equal bytes (the checkpoint-equivalence tests rely on this).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 64+12*(len(s.pos)+len(s.neg)))
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u32(sketchMagic)
	f64(s.alpha)
	u64(s.count)
	u64(s.nans)
	u64(s.zero)
	u64(s.posInf)
	u64(s.negInf)
	f64(s.min)
	f64(s.max)
	writeBins := func(m map[int32]uint64) {
		keys := sortedKeys(m)
		u32(uint32(len(keys)))
		for _, k := range keys {
			u32(uint32(k))
			u64(m[k])
		}
	}
	writeBins(s.pos)
	writeBins(s.neg)
	return buf, nil
}

// UnmarshalBinary decodes a sketch encoded by MarshalBinary, replacing s's
// state entirely. It accepts only bytes MarshalBinary can produce: an
// accuracy in (0, 1), bin keys strictly ascending, no empty bin, and a
// count equal to the sum of the zero, overflow and bin counts — so a
// successful decode re-encodes to the same bytes. On error s is left
// unchanged.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := binReader{buf: data}
	if magic := r.u32(); magic != sketchMagic {
		return fmt.Errorf("stats: bad sketch encoding magic %#x", magic)
	}
	alpha := r.f64()
	if !(alpha > 0 && alpha < 1) { // also refuses NaN
		return fmt.Errorf("stats: bad sketch accuracy %v", alpha)
	}
	d := NewSketch(alpha)
	d.count = r.u64()
	d.nans = r.u64()
	d.zero = r.u64()
	d.posInf = r.u64()
	d.negInf = r.u64()
	d.min = r.f64()
	d.max = r.f64()
	var sum, overflow uint64
	add := func(c uint64) {
		var carry uint64
		sum, carry = bits.Add64(sum, c, 0)
		overflow |= carry
	}
	add(d.zero)
	add(d.posInf)
	add(d.negInf)
	readBins := func(m map[int32]uint64) error {
		n := r.u32()
		var last int32
		for i := uint32(0); i < n; i++ {
			k, c := int32(r.u32()), r.u64()
			if r.err != nil {
				return nil // reported as a truncation below
			}
			if i > 0 && k <= last {
				return fmt.Errorf("stats: sketch bin key %d follows %d", k, last)
			}
			if c == 0 {
				return fmt.Errorf("stats: sketch bin %d is empty", k)
			}
			m[k] = c
			add(c)
			last = k
		}
		return nil
	}
	if err := readBins(d.pos); err != nil {
		return err
	}
	if err := readBins(d.neg); err != nil {
		return err
	}
	if r.err != nil {
		return fmt.Errorf("stats: truncated sketch encoding: %w", r.err)
	}
	if len(r.buf) != r.off {
		return fmt.Errorf("stats: %d trailing bytes after sketch", len(r.buf)-r.off)
	}
	if overflow != 0 || sum != d.count {
		return fmt.Errorf("stats: sketch count %d does not match its buckets", d.count)
	}
	*s = *d
	return nil
}

// binReader is a minimal error-latching little-endian reader.
type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = errors.New("unexpected end of data")
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *binReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }
