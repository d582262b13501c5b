// Package faults provides deterministic fault injection for the
// telemetry→estimator pipeline. Production telemetry channels lose
// intervals, deliver them twice or out of order, and report counters that
// are NaN, infinite, negative, or freshly reset — the auto-scaling survey
// literature lists fault tolerance of the scaling loop itself as a
// first-class requirement, and the paper's robust-statistics machinery
// (Section 3) only pays off if the pipeline survives the raw telemetry it
// was designed for. An Injector sits between the engine (the telemetry
// producer) and whatever consumes snapshots (a policy, a
// telemetry.Manager) and perturbs the stream according to a Plan.
//
// Every decision the injector makes is a pure function of (plan, stream
// seed, interval index): the per-interval random stream is derived with
// exec.SplitSeed, never from a shared sequential source, so the same plan
// and seed reproduce the same faults at any worker count — the property
// the chaos determinism tests in package sim assert bit-for-bit.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"daasscale/internal/exec"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// Kind enumerates the fault taxonomy (DESIGN.md §9).
type Kind int

// The fault kinds, in the order the injector evaluates them.
const (
	// KindDrop loses the interval's snapshot entirely.
	KindDrop Kind = iota
	// KindDuplicate delivers the snapshot twice.
	KindDuplicate
	// KindReorder holds the snapshot back and releases it after a newer
	// one, so the consumer sees interval indices go backwards.
	KindReorder
	// KindNaN poisons one counter field with NaN.
	KindNaN
	// KindInf poisons one counter field with +Inf.
	KindInf
	// KindNegative flips one counter field negative.
	KindNegative
	// KindReset zeroes the cumulative counters (waits, physical I/O,
	// transactions) as an engine counter reset would.
	KindReset
	// KindPartialWaitMap clears a random subset of the per-class wait
	// totals, as when the wait statistics arrive incomplete.
	KindPartialWaitMap
	// KindEmptyWaitMap clears every per-class wait total, as when the wait
	// statistics arrive empty.
	KindEmptyWaitMap
	// KindClockSkew perturbs the snapshot's Interval index by a few
	// intervals in either direction.
	KindClockSkew
	numKinds
)

// NumKinds is the number of fault kinds.
const NumKinds = int(numKinds)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDuplicate:
		return "duplicate"
	case KindReorder:
		return "reorder"
	case KindNaN:
		return "nan"
	case KindInf:
		return "inf"
	case KindNegative:
		return "negative"
	case KindReset:
		return "counter-reset"
	case KindPartialWaitMap:
		return "partial-wait-map"
	case KindEmptyWaitMap:
		return "empty-wait-map"
	case KindClockSkew:
		return "clock-skew"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Plan is a deterministic fault plan: one independent probability per fault
// kind, evaluated once per delivered interval, plus a Seed salt that
// decorrelates plans sharing a stream seed. The zero value injects nothing.
type Plan struct {
	// Seed salts every derived random stream; two plans with different
	// Seeds fault different intervals even on the same telemetry stream.
	Seed int64
	// Rates holds the per-interval probability of each fault kind.
	Rates [NumKinds]float64
}

// Uniform returns a plan whose per-interval total fault probability is
// approximately rate, spread evenly across all fault kinds. Uniform(0.1)
// is the "≤10% fault rate" chaos configuration of the acceptance tests.
func Uniform(rate float64) Plan {
	var p Plan
	for k := range p.Rates {
		p.Rates[k] = rate / float64(NumKinds)
	}
	return p
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	for _, r := range p.Rates {
		if r > 0 {
			return true
		}
	}
	return false
}

// Validate rejects rates outside [0, 1] and non-finite rates.
func (p Plan) Validate() error {
	for k, r := range p.Rates {
		if math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("faults: rate for %v must be in [0,1], got %v", Kind(k), r)
		}
	}
	return nil
}

// Stats counts what an Injector actually did.
type Stats struct {
	// Intervals is the number of snapshots offered to the injector.
	Intervals int
	// Delivered is the number of snapshots passed through to the consumer
	// (duplicates inflate it, drops and held reorders deflate it).
	Delivered int
	// Injected counts fault events per kind.
	Injected [NumKinds]int
}

// Total returns the total number of fault events across kinds.
func (s Stats) Total() int {
	t := 0
	for _, n := range s.Injected {
		t += n
	}
	return t
}

// String summarizes the non-zero counters.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d intervals delivered", s.Delivered, s.Intervals)
	for k, n := range s.Injected {
		if n > 0 {
			fmt.Fprintf(&b, ", %s×%d", Kind(k), n)
		}
	}
	return b.String()
}

// Injector applies a Plan to one telemetry stream. It is stateful (the
// reorder hold-back buffer, the stats) and not safe for concurrent use;
// create one injector per stream.
type Injector struct {
	plan    Plan
	base    int64
	held    telemetry.Snapshot
	hasHeld bool
	stats   Stats
	out     []telemetry.Snapshot
}

// NewInjector creates an injector for one stream. streamSeed identifies
// the stream (a run or tenant seed); it is mixed with the plan's Seed so
// distinct plans fault distinct intervals.
func NewInjector(p Plan, streamSeed int64) *Injector {
	return &Injector{plan: p, base: exec.SplitSeed(streamSeed, p.Seed)}
}

// Stats returns the injection counters so far.
func (in *Injector) Stats() Stats { return in.stats }

// intervalRand derives the interval's private random stream. Decisions for
// interval i never depend on how many snapshots came before it, only on
// (plan, stream seed, i) — the determinism anchor.
func (in *Injector) intervalRand(interval int) *rand.Rand {
	return rand.New(rand.NewSource(exec.SplitSeed(in.base, int64(interval))))
}

// roll evaluates one fault kind's probability on the interval stream.
func (in *Injector) roll(r *rand.Rand, k Kind) bool {
	rate := in.plan.Rates[k]
	if rate <= 0 {
		return false
	}
	// Draw unconditionally so later kinds' draws do not shift when an
	// earlier kind's rate changes from zero to non-zero.
	hit := r.Float64() < rate
	if hit {
		in.stats.Injected[k]++
	}
	return hit
}

// Apply offers one engine snapshot to the injector and returns the
// snapshots the consumer should observe for this interval: usually one,
// zero when the interval is dropped or held for reordering, two or more
// when a duplicate or a held snapshot is released. The returned slice is
// reused across calls; consume it before the next Apply.
func (in *Injector) Apply(s telemetry.Snapshot) []telemetry.Snapshot {
	in.out = in.out[:0]
	in.stats.Intervals++
	r := in.intervalRand(s.Interval)

	if in.roll(r, KindDrop) {
		// The interval is lost. A held snapshot, if any, stays held — a
		// drop cannot flush the reorder buffer.
		return in.out
	}
	in.corrupt(&s, r)
	if !in.hasHeld && in.roll(r, KindReorder) {
		in.held, in.hasHeld = s, true
		return in.out
	}
	in.out = append(in.out, s)
	if in.roll(r, KindDuplicate) {
		in.out = append(in.out, s)
	}
	if in.hasHeld {
		// Release the held snapshot after the newer one: the consumer sees
		// its interval index go backwards.
		in.out = append(in.out, in.held)
		in.hasHeld = false
	}
	in.stats.Delivered += len(in.out)
	return in.out
}

// counterFields is the number of scalar corruption targets poisonField
// chooses from.
const counterFields = 8

// poisonField overwrites one randomly chosen counter field. For the
// negative kind, v is the sentinel −1 and the field is negated instead.
func poisonField(s *telemetry.Snapshot, r *rand.Rand, v float64, negate bool) {
	put := func(f *float64) {
		if negate {
			*f = -math.Abs(*f) - 1
		} else {
			*f = v
		}
	}
	switch r.Intn(counterFields) {
	case 0:
		put(&s.AvgLatencyMs)
	case 1:
		put(&s.P95LatencyMs)
	case 2:
		put(&s.OfferedRPS)
	case 3:
		put(&s.MemoryUsedMB)
	case 4:
		put(&s.PhysicalReads)
	case 5:
		put(&s.Transactions)
	case 6:
		put(&s.Utilization[resource.Kind(r.Intn(resource.NumKinds))])
	case 7:
		put(&s.WaitMs[r.Intn(telemetry.NumWaitClasses)])
	}
}

// corrupt applies the in-place corruption kinds to one snapshot. The kinds
// are evaluated in a fixed order on the interval's private stream.
func (in *Injector) corrupt(s *telemetry.Snapshot, r *rand.Rand) {
	if in.roll(r, KindNaN) {
		poisonField(s, r, math.NaN(), false)
	}
	if in.roll(r, KindInf) {
		poisonField(s, r, math.Inf(1), false)
	}
	if in.roll(r, KindNegative) {
		poisonField(s, r, 0, true)
	}
	if in.roll(r, KindReset) {
		s.WaitMs = [telemetry.NumWaitClasses]float64{}
		s.PhysicalReads = 0
		s.PhysicalWrites = 0
		s.Transactions = 0
	}
	if in.roll(r, KindPartialWaitMap) {
		// Clear a random, non-empty subset of wait classes — the shape of
		// partially delivered wait statistics.
		cleared := false
		for c := range s.WaitMs {
			if r.Float64() < 0.5 {
				s.WaitMs[c] = 0
				cleared = true
			}
		}
		if !cleared {
			s.WaitMs[r.Intn(telemetry.NumWaitClasses)] = 0
		}
	}
	if in.roll(r, KindEmptyWaitMap) {
		s.WaitMs = [telemetry.NumWaitClasses]float64{}
	}
	if in.roll(r, KindClockSkew) {
		skew := 1 + r.Intn(3)
		if r.Intn(2) == 0 {
			skew = -skew
		}
		s.Interval += skew
		if s.Interval < 0 {
			s.Interval = 0
		}
	}
}
