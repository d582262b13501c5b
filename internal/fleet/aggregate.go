package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"daasscale/internal/stats"
)

// changesPerDayEdges are the paper's Figure 2(b) histogram edges.
var changesPerDayEdges = []float64{1, 2, 3, 6, 12, 24}

// Aggregate is the incremental form of Analysis: every Section 2.2
// statistic, accumulated tenant by tenant so the fleet never has to exist
// as a slice. All state is integer counters plus one mergeable quantile
// sketch (the inter-event-interval distribution), which makes Merge exactly
// commutative and associative — the resulting Analysis is bit-identical for
// any worker count, any shard size and any merge tree over the same
// tenants, and survives a checkpoint round trip unchanged.
type Aggregate struct {
	alpha float64

	tenants      int64
	totalChanges int64
	oneStep      int64
	atMostTwo    int64

	ieiCount    int64 // inter-event intervals observed
	ieiWithin60 int64 // ≤ 60 minutes
	iei         *stats.Sketch

	tenantsWithDays int64 // tenants contributing a changes/day observation
	histCounts      []int64
	ge1, ge6, gt24  int64

	archTenants [numArchetypes]int64
	archChanges [numArchetypes]int64
	archDays    [numArchetypes]int64
}

// NewAggregate builds an empty aggregate whose IEI sketch has relative
// accuracy alpha (non-positive selects stats.DefaultSketchAccuracy).
func NewAggregate(alpha float64) *Aggregate {
	s := stats.NewSketch(alpha)
	return &Aggregate{
		alpha:      s.Accuracy(),
		iei:        s,
		histCounts: make([]int64, len(changesPerDayEdges)+1),
	}
}

// ObserveTenant folds one tenant's change events into the aggregate and
// forgets the tenant: the demand series can be discarded (or its buffer
// reused) as soon as this returns.
func (a *Aggregate) ObserveTenant(t *Tenant, events []ChangeEvent) {
	a.tenants++
	arch := t.Archetype
	if arch < 0 || arch >= numArchetypes {
		arch = numArchetypes // impossible by construction; guard the arrays
	} else {
		a.archTenants[arch]++
		a.archChanges[arch] += int64(len(events))
		a.archDays[arch] += int64(t.Days())
	}
	a.totalChanges += int64(len(events))
	for j := range events {
		if j > 0 {
			m := float64(events[j].Interval-events[j-1].Interval) * 5
			a.ieiCount++
			if m <= 60 {
				a.ieiWithin60++
			}
			a.iei.Add(m)
		}
		if events[j].StepDelta() == 1 {
			a.oneStep++
		}
		if events[j].StepDelta() <= 2 {
			a.atMostTwo++
		}
	}
	days := t.Days()
	if days > 0 {
		a.tenantsWithDays++
		cpd := float64(len(events)) / float64(days)
		// Same edge semantics as stats.Histogram: a value equal to an edge
		// goes right.
		i := sort.SearchFloat64s(changesPerDayEdges, cpd)
		if i < len(changesPerDayEdges) && cpd == changesPerDayEdges[i] {
			i++
		}
		a.histCounts[i]++
		if cpd >= 1 {
			a.ge1++
		}
		if cpd >= 6 {
			a.ge6++
		}
		if cpd > 24 {
			a.gt24++
		}
	}
}

// Merge folds o into a. Counter addition and sketch merging are exact, so
// Merge is commutative and associative bit-for-bit; merging aggregates with
// different sketch accuracies fails.
func (a *Aggregate) Merge(o *Aggregate) error {
	if o == nil {
		return nil
	}
	if err := a.iei.Merge(o.iei); err != nil {
		return err
	}
	a.tenants += o.tenants
	a.totalChanges += o.totalChanges
	a.oneStep += o.oneStep
	a.atMostTwo += o.atMostTwo
	a.ieiCount += o.ieiCount
	a.ieiWithin60 += o.ieiWithin60
	a.tenantsWithDays += o.tenantsWithDays
	for i := range a.histCounts {
		a.histCounts[i] += o.histCounts[i]
	}
	a.ge1 += o.ge1
	a.ge6 += o.ge6
	a.gt24 += o.gt24
	for i := range a.archTenants {
		a.archTenants[i] += o.archTenants[i]
		a.archChanges[i] += o.archChanges[i]
		a.archDays[i] += o.archDays[i]
	}
	return nil
}

// Analysis renders the aggregate as the Section 2.2 Analysis. Every field
// is derived from exact integer counters — bit-identical to an exact
// in-memory pass over the same tenants — except IEICDF, which is the sketch's
// approximation: one point per occupied bin at the bin's lower value bound,
// so probes at observed sample values never under-report (the overcount is
// bounded by the sketch's per-bin resolution).
func (a *Aggregate) Analysis() Analysis {
	out := Analysis{
		Tenants:      int(a.tenants),
		TotalChanges: int(a.totalChanges),
		IEICDF:       a.iei.CDFApprox(),
	}
	if a.ieiCount > 0 {
		out.IEIWithin60Min = float64(a.ieiWithin60) / float64(a.ieiCount)
	}
	buckets := make([]stats.Bucket, len(changesPerDayEdges)+1)
	lo := math.Inf(-1)
	for i, e := range changesPerDayEdges {
		buckets[i] = stats.Bucket{Lo: lo, Hi: e, Count: int(a.histCounts[i])}
		lo = e
	}
	buckets[len(changesPerDayEdges)] = stats.Bucket{Lo: lo, Hi: math.Inf(1), Count: int(a.histCounts[len(changesPerDayEdges)])}
	out.ChangesPerDayHist = buckets
	if a.tenantsWithDays > 0 {
		out.FracAtLeastOnePerDay = float64(a.ge1) / float64(a.tenantsWithDays)
		out.FracAtLeastSixPerDay = float64(a.ge6) / float64(a.tenantsWithDays)
		out.FracMoreThan24PerDay = float64(a.gt24) / float64(a.tenantsWithDays)
	}
	if a.totalChanges > 0 {
		out.OneStepShare = float64(a.oneStep) / float64(a.totalChanges)
		out.AtMostTwoStepsShare = float64(a.atMostTwo) / float64(a.totalChanges)
	}
	return out
}

// --- serialization ---------------------------------------------------------

const aggregateMagic = uint32(0x46414731) // "FAG1"

// MarshalBinary encodes the aggregate deterministically (fixed field order,
// sketch in its own deterministic encoding) for checkpoint files.
func (a *Aggregate) MarshalBinary() ([]byte, error) {
	sk, err := a.iei.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 128+len(sk))
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	i64 := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	u32(aggregateMagic)
	i64(a.tenants)
	i64(a.totalChanges)
	i64(a.oneStep)
	i64(a.atMostTwo)
	i64(a.ieiCount)
	i64(a.ieiWithin60)
	i64(a.tenantsWithDays)
	i64(a.ge1)
	i64(a.ge6)
	i64(a.gt24)
	u32(uint32(len(a.histCounts)))
	for _, c := range a.histCounts {
		i64(c)
	}
	u32(uint32(numArchetypes))
	for i := 0; i < int(numArchetypes); i++ {
		i64(a.archTenants[i])
		i64(a.archChanges[i])
		i64(a.archDays[i])
	}
	u32(uint32(len(sk)))
	buf = append(buf, sk...)
	return buf, nil
}

// UnmarshalBinary decodes an aggregate encoded by MarshalBinary, replacing
// a's state entirely.
func (a *Aggregate) UnmarshalBinary(data []byte) error {
	r := aggReader{buf: data}
	if magic := r.u32(); magic != aggregateMagic {
		return fmt.Errorf("fleet: bad aggregate encoding magic %#x", magic)
	}
	tenants := r.i64()
	totalChanges := r.i64()
	oneStep := r.i64()
	atMostTwo := r.i64()
	ieiCount := r.i64()
	ieiWithin60 := r.i64()
	tenantsWithDays := r.i64()
	ge1, ge6, gt24 := r.i64(), r.i64(), r.i64()
	nHist := int(r.u32())
	if r.err == nil && nHist != len(changesPerDayEdges)+1 {
		return fmt.Errorf("fleet: aggregate has %d histogram buckets, want %d", nHist, len(changesPerDayEdges)+1)
	}
	hist := make([]int64, nHist)
	for i := range hist {
		hist[i] = r.i64()
	}
	nArch := int(r.u32())
	if r.err == nil && nArch != int(numArchetypes) {
		return fmt.Errorf("fleet: aggregate has %d archetypes, want %d", nArch, int(numArchetypes))
	}
	var archT, archC, archD [numArchetypes]int64
	for i := 0; i < nArch && r.err == nil; i++ {
		archT[i], archC[i], archD[i] = r.i64(), r.i64(), r.i64()
	}
	skLen := int(r.u32())
	sk := r.take(skLen)
	if r.err != nil {
		return fmt.Errorf("fleet: truncated aggregate encoding: %w", r.err)
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("fleet: %d trailing bytes after aggregate", len(r.buf)-r.off)
	}
	iei := new(stats.Sketch)
	if err := iei.UnmarshalBinary(sk); err != nil {
		return err
	}
	*a = Aggregate{
		alpha:           iei.Accuracy(),
		iei:             iei,
		tenants:         tenants,
		totalChanges:    totalChanges,
		oneStep:         oneStep,
		atMostTwo:       atMostTwo,
		ieiCount:        ieiCount,
		ieiWithin60:     ieiWithin60,
		tenantsWithDays: tenantsWithDays,
		histCounts:      hist,
		ge1:             ge1,
		ge6:             ge6,
		gt24:            gt24,
		archTenants:     archT,
		archChanges:     archC,
		archDays:        archD,
	}
	return nil
}

// aggReader mirrors the error-latching reader used by the stats sketch.
type aggReader struct {
	buf []byte
	off int
	err error
}

func (r *aggReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.err = errors.New("unexpected end of data")
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *aggReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *aggReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}
