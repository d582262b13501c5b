package fleet

import (
	"encoding/binary"
	"fmt"
	"math"

	"daasscale/internal/estimator"
	"daasscale/internal/resource"
	"daasscale/internal/stats"
)

// corrReservoirCap bounds the number of (utilization, wait) pairs retained
// per resource for Spearman correlation. Rank correlation is not sketchable
// — it needs joint observations — so the digest keeps a deterministic
// prefix of the sample stream: the first corrReservoirCap pairs in global
// config order. Because shards merge in config order, the retained prefix
// is identical for any shard size and worker count.
const corrReservoirCap = 4096

// WaitDigest is the streaming, mergeable summary behind Figures 4 and 6
// and the Section 4.1 calibration: one digest per resource kind
// accumulates the low/high-utilization wait distributions as quantile
// sketches, plus a bounded reservoir for Figure 4's rank correlation, in
// O(bins) memory regardless of how many intervals were observed.
type WaitDigest struct {
	kind  resource.Kind
	alpha float64

	lowMs   *stats.Sketch // wait magnitude at utilization < 0.30
	highMs  *stats.Sketch // wait magnitude at utilization > 0.70
	lowPct  *stats.Sketch
	highPct *stats.Sketch

	corrUtil []float64
	corrWait []float64
	corrSeen uint64 // pairs observed, including those past the reservoir
}

// NewWaitDigest builds an empty digest for one resource kind with sketch
// accuracy alpha (non-positive selects stats.DefaultSketchAccuracy).
func NewWaitDigest(k resource.Kind, alpha float64) *WaitDigest {
	s := stats.NewSketch(alpha)
	return &WaitDigest{
		kind:    k,
		alpha:   s.Accuracy(),
		lowMs:   s,
		highMs:  stats.NewSketch(alpha),
		lowPct:  stats.NewSketch(alpha),
		highPct: stats.NewSketch(alpha),
	}
}

// Kind returns the resource the digest describes.
func (d *WaitDigest) Kind() resource.Kind { return d.kind }

// LowCount / HighCount return the number of observations in the low-/high-
// utilization band (the paper's <30% / >70% split).
func (d *WaitDigest) LowCount() int  { return int(d.lowMs.Count()) }
func (d *WaitDigest) HighCount() int { return int(d.highMs.Count()) }

// LowMs / HighMs / LowPct / HighPct expose the band sketches for quantile
// queries and report tables.
func (d *WaitDigest) LowMs() *stats.Sketch   { return d.lowMs }
func (d *WaitDigest) HighMs() *stats.Sketch  { return d.highMs }
func (d *WaitDigest) LowPct() *stats.Sketch  { return d.lowPct }
func (d *WaitDigest) HighPct() *stats.Sketch { return d.highPct }

// Observe folds one (utilization, wait) interval observation into the
// digest. Mid-band utilization (30%–70%) contributes to the correlation
// reservoir but to neither wait distribution.
func (d *WaitDigest) Observe(utilization, waitMs, waitPct float64) {
	switch {
	case utilization < 0.30:
		d.lowMs.Add(waitMs)
		d.lowPct.Add(waitPct)
	case utilization > 0.70:
		d.highMs.Add(waitMs)
		d.highPct.Add(waitPct)
	}
	if len(d.corrUtil) < corrReservoirCap {
		d.corrUtil = append(d.corrUtil, utilization)
		d.corrWait = append(d.corrWait, waitMs)
	}
	d.corrSeen++
}

// Merge folds o into d. Sketch merges are exact; the correlation reservoir
// appends o's pairs in order until the cap, so merging shard digests in
// shard order retains exactly the first corrReservoirCap pairs of the
// global stream — bit-identical for any sharding.
func (d *WaitDigest) Merge(o *WaitDigest) error {
	if o == nil {
		return nil
	}
	if o.kind != d.kind {
		return fmt.Errorf("fleet: cannot merge %v wait digest into %v", o.kind, d.kind)
	}
	if err := d.lowMs.Merge(o.lowMs); err != nil {
		return err
	}
	if err := d.highMs.Merge(o.highMs); err != nil {
		return err
	}
	if err := d.lowPct.Merge(o.lowPct); err != nil {
		return err
	}
	if err := d.highPct.Merge(o.highPct); err != nil {
		return err
	}
	for i := range o.corrUtil {
		if len(d.corrUtil) >= corrReservoirCap {
			break
		}
		d.corrUtil = append(d.corrUtil, o.corrUtil[i])
		d.corrWait = append(d.corrWait, o.corrWait[i])
	}
	d.corrSeen += o.corrSeen
	return nil
}

// Separation quantifies how far apart the low- and high-utilization wait
// distributions are: the ratio of the high distribution's 75th percentile
// to the low distribution's 90th percentile (>1 means separated; the
// paper's Figure 6 shows orders of magnitude). Idle tenants often have
// exactly zero waits, so the denominator is floored at one second per
// interval.
func (d *WaitDigest) Separation() float64 {
	lo := d.lowMs.Quantile(0.90)
	hi := d.highMs.Quantile(0.75)
	if !(lo >= 1000) { // also catches NaN from an empty sketch
		lo = 1000
	}
	return hi / lo
}

// Correlation is Spearman's ρ between utilization and wait magnitude over
// the retained reservoir (the first corrReservoirCap observations) —
// Figure 4's "increasing trend with a wide band": positive but far from 1.
func (d *WaitDigest) Correlation() (float64, error) {
	var sc stats.SpearmanScratch
	return stats.SpearmanBuf(d.corrUtil, d.corrWait, &sc)
}

// Calibrate derives the Section 4.1 threshold pair from the digest. The
// LOW threshold comes from the low-utilization distribution's 90th
// percentile: waits below it are unremarkable even for idle tenants. The
// HIGH threshold comes from the lower edge (10th percentile) of the
// high-utilization distribution, which is bimodal — stable stints with
// modest waits and saturated stints whose waits grow without bound — so
// the threshold sits at the boundary between the modes, not at the
// saturation-dominated upper percentiles. Both are clamped to a sane
// operating range. ok is false when either band has fewer than 30
// observations; callers should then keep defaults. Each quantile is within
// the sketch's relative accuracy of the exact sample quantile.
func (d *WaitDigest) Calibrate() (low, high float64, ok bool) {
	if d.LowCount() < 30 || d.HighCount() < 30 {
		return 0, 0, false
	}
	low = stats.Clamp(d.lowMs.Quantile(0.90), 2_000, 50_000)
	high = stats.Clamp(d.highMs.Quantile(0.10), 2*low, 200_000)
	return low, high, true
}

// CalibrateDigests assembles estimator thresholds from per-kind digests.
// Kinds without a digest — or without enough observations — keep the
// defaults.
func CalibrateDigests(digests []*WaitDigest) estimator.Thresholds {
	th := estimator.DefaultThresholds()
	for _, d := range digests {
		if d == nil {
			continue
		}
		if low, high, ok := d.Calibrate(); ok {
			th.WaitLowMs[d.kind] = low
			th.WaitHighMs[d.kind] = high
		}
	}
	return th
}

// --- serialization ---------------------------------------------------------

const waitDigestMagic = uint32(0x46574431) // "FWD1"

// MarshalBinary encodes the digest deterministically for checkpoint files.
func (d *WaitDigest) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 256)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u32(waitDigestMagic)
	u32(uint32(d.kind))
	u64(d.corrSeen)
	u32(uint32(len(d.corrUtil)))
	for i := range d.corrUtil {
		u64(math.Float64bits(d.corrUtil[i]))
		u64(math.Float64bits(d.corrWait[i]))
	}
	for _, s := range []*stats.Sketch{d.lowMs, d.highMs, d.lowPct, d.highPct} {
		sk, err := s.MarshalBinary()
		if err != nil {
			return nil, err
		}
		u32(uint32(len(sk)))
		buf = append(buf, sk...)
	}
	return buf, nil
}

// UnmarshalBinary decodes a digest encoded by MarshalBinary, replacing d's
// state entirely.
func (d *WaitDigest) UnmarshalBinary(data []byte) error {
	r := aggReader{buf: data}
	if magic := r.u32(); magic != waitDigestMagic {
		return fmt.Errorf("fleet: bad wait-digest encoding magic %#x", magic)
	}
	kind := resource.Kind(r.u32())
	corrSeen := uint64(r.i64())
	nCorr := int(r.u32())
	if r.err == nil && nCorr > corrReservoirCap {
		return fmt.Errorf("fleet: wait digest reservoir holds %d pairs, cap %d", nCorr, corrReservoirCap)
	}
	var util, wait []float64
	if r.err == nil && nCorr > 0 {
		util = make([]float64, nCorr)
		wait = make([]float64, nCorr)
		for i := 0; i < nCorr; i++ {
			util[i] = math.Float64frombits(uint64(r.i64()))
			wait[i] = math.Float64frombits(uint64(r.i64()))
		}
	}
	sketches := make([]*stats.Sketch, 4)
	for i := range sketches {
		n := int(r.u32())
		raw := r.take(n)
		if r.err != nil {
			break
		}
		s := new(stats.Sketch)
		if err := s.UnmarshalBinary(raw); err != nil {
			return err
		}
		if i > 0 && s.Accuracy() != sketches[0].Accuracy() {
			return fmt.Errorf("fleet: wait digest mixes sketch accuracies %v and %v", sketches[0].Accuracy(), s.Accuracy())
		}
		sketches[i] = s
	}
	if r.err != nil {
		return fmt.Errorf("fleet: truncated wait-digest encoding: %w", r.err)
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("fleet: %d trailing bytes after wait digest", len(r.buf)-r.off)
	}
	*d = WaitDigest{
		kind:     kind,
		alpha:    sketches[0].Accuracy(),
		lowMs:    sketches[0],
		highMs:   sketches[1],
		lowPct:   sketches[2],
		highPct:  sketches[3],
		corrUtil: util,
		corrWait: wait,
		corrSeen: corrSeen,
	}
	return nil
}
