// Package fleet models the service-wide view a DaaS provider has: telemetry
// from thousands of tenant databases with very different workloads. The
// paper uses this fleet-wide telemetry twice — first to motivate
// auto-scaling (Section 2.2: how often do resource demands cross container
// boundaries?), and then to calibrate the demand estimator's wait
// thresholds (Section 4.1: the separation between wait distributions at low
// and high utilization).
//
// Production traces are proprietary, so the fleet here is synthetic: each
// tenant draws a weekly resource-demand series from an archetype (steady,
// diurnal, bursty, spiky, growing) with tenant-specific scale and resource
// mix. The analyses reproduce the distributional shapes the paper reports
// (Figures 2, 4 and 6), and — critically — the calibration path is the same:
// thresholds are derived from percentiles of the fleet's wait distributions.
package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"daasscale/internal/resource"
	"daasscale/internal/stats"
)

// Archetype is a tenant demand pattern family.
type Archetype int

// The demand archetypes observed across a fleet.
const (
	// Steady tenants hold a roughly constant demand.
	Steady Archetype = iota
	// Diurnal tenants follow a day/night cycle.
	Diurnal
	// Bursty tenants are mostly quiet with multi-hour bursts.
	Bursty
	// Spiky tenants see frequent short spikes.
	Spiky
	// Growing tenants ramp up over the week.
	Growing
	numArchetypes
)

// String names the archetype.
func (a Archetype) String() string {
	switch a {
	case Steady:
		return "steady"
	case Diurnal:
		return "diurnal"
	case Bursty:
		return "bursty"
	case Spiky:
		return "spiky"
	case Growing:
		return "growing"
	default:
		return fmt.Sprintf("archetype(%d)", int(a))
	}
}

// IntervalsPerDay is the number of 5-minute aggregation intervals per day
// (the granularity of the paper's production analysis, Section 2.2).
const IntervalsPerDay = 24 * 12

// Tenant is one synthetic tenant: a weekly demand series at 5-minute
// granularity, in absolute resource units (the same units as container
// allocations).
type Tenant struct {
	// ID identifies the tenant within the fleet.
	ID int
	// Archetype is the tenant's demand pattern family.
	Archetype Archetype
	// Demand holds one resource-demand vector per 5-minute interval.
	Demand []resource.Vector
}

// Days returns the length of the series in days, rounding a trailing
// partial day up: a checkpoint-resumed or otherwise truncated series that
// covers 1.5 days spans 2 calendar days, and the old truncating division
// both undercounted it and reported 0 days (division by which the
// changes-per-day statistics then skipped the tenant entirely) for any
// series shorter than a full day.
func (t *Tenant) Days() int {
	if len(t.Demand) == 0 {
		return 0
	}
	return (len(t.Demand) + IntervalsPerDay - 1) / IntervalsPerDay
}

// generateTenantInto builds one tenant's weekly demand into buf when it has
// the capacity — the streaming pipeline's warm path reuses one demand
// buffer for every tenant of a shard, which is what keeps the per-tenant
// allocation count flat. Archetypes, scales and resource mixes vary per
// tenant; the series is a function of the RNG stream alone.
func generateTenantInto(id, days int, rng *rand.Rand, buf []resource.Vector) Tenant {
	arch := Archetype(rng.Intn(int(numArchetypes)))
	intervals := days * IntervalsPerDay

	// Base scale: log-uniform across the catalog's range. The mix skews
	// the tenant toward one dominant resource.
	scale := math.Exp(rng.Float64() * math.Log(40)) // 1x .. 40x of the smallest container
	cpuMix := 0.4 + rng.Float64()*1.2
	ioMix := 0.4 + rng.Float64()*1.2
	logMix := 0.3 + rng.Float64()*1.0
	memMB := 512 + rng.Float64()*12000
	phase := rng.Float64() * float64(IntervalsPerDay)
	growth := 0.5 + rng.Float64() // Growing: end-of-week multiple

	// Burst state for the bursty/spiky archetypes.
	burstLeft := 0
	burstAmp := 1.0

	if cap(buf) < intervals {
		buf = make([]resource.Vector, intervals)
	}
	t := Tenant{ID: id, Archetype: arch, Demand: buf[:intervals]}
	for i := 0; i < intervals; i++ {
		level := 1.0
		switch arch {
		case Steady:
			level = 1
		case Diurnal:
			day := 2 * math.Pi * (float64(i) + phase) / float64(IntervalsPerDay)
			level = 0.35 + 0.65*math.Max(0, math.Sin(day))
		case Bursty:
			if burstLeft == 0 && rng.Float64() < 0.004 { // ~1 burst/day
				burstLeft = 12 + rng.Intn(60) // 1–6 hours
				burstAmp = 3 + rng.Float64()*7
			}
			level = 0.25
			if burstLeft > 0 {
				level = 0.25 * burstAmp
				burstLeft--
			}
		case Spiky:
			if burstLeft == 0 && rng.Float64() < 0.03 {
				burstLeft = 3 + rng.Intn(9) // 15–60 minutes
				burstAmp = 2 + rng.Float64()*6
			}
			level = 0.3
			if burstLeft > 0 {
				level = 0.3 * burstAmp
				burstLeft--
			}
		case Growing:
			level = 0.4 + growth*float64(i)/float64(intervals)
		}
		amp := 0.12
		if arch == Steady {
			amp = 0.04 // steady tenants are steady; others carry real variance
		}
		noise := 1 + amp*(2*rng.Float64()-1)
		l := level * noise * scale
		t.Demand[i] = resource.Vector{
			resource.CPU:    l * cpuMix * 300, // core-ms/s
			resource.Memory: math.Min(memMB, memMB*(0.5+l/scale*0.5)),
			resource.DiskIO: l * ioMix * 60, // IOPS
			resource.LogIO:  l * logMix * 150,
		}
	}
	return t
}

// assignContainersInto maps each interval's demand to the smallest fitting
// container (the paper's logical assignment, Section 2.2: "we logically
// assigned the smallest container supported by the service that can meet
// the resource requirements for that interval"), into a reusable buffer.
func assignContainersInto(t *Tenant, cat *resource.Catalog, buf []resource.Container) []resource.Container {
	if cap(buf) < len(t.Demand) {
		buf = make([]resource.Container, len(t.Demand))
	}
	buf = buf[:len(t.Demand)]
	for i, d := range t.Demand {
		buf[i], _ = cat.SmallestFitting(d)
	}
	return buf
}

// ChangeEvent records a container-size change between successive intervals.
type ChangeEvent struct {
	// Interval is the 5-minute interval index at which the change occurred.
	Interval int
	// FromStep and ToStep are the ladder steps before and after.
	FromStep, ToStep int
}

// StepDelta returns the absolute step distance of the change.
func (c ChangeEvent) StepDelta() int {
	d := c.ToStep - c.FromStep
	if d < 0 {
		d = -d
	}
	return d
}

// changeEventsInto extracts the change events from a container assignment,
// appending them into out[:0].
func changeEventsInto(assignment []resource.Container, out []ChangeEvent) []ChangeEvent {
	out = out[:0]
	for i := 1; i < len(assignment); i++ {
		if assignment[i].Name != assignment[i-1].Name {
			out = append(out, ChangeEvent{
				Interval: i,
				FromStep: assignment[i-1].Step,
				ToStep:   assignment[i].Step,
			})
		}
	}
	return out
}

// Analysis is the fleet-wide change-event study behind Figure 2 and the
// step-size statistics of Section 4.
type Analysis struct {
	// Tenants is the number of tenants analyzed.
	Tenants int
	// TotalChanges is the number of change events across the fleet.
	TotalChanges int
	// IEICDF is the cumulative distribution of the inter-event interval in
	// minutes (Figure 2(a)).
	IEICDF []stats.CDFPoint
	// IEIWithin60Min is the fraction of changes within 60 minutes of the
	// previous one (the paper reports ≈86%).
	IEIWithin60Min float64
	// ChangesPerDayHist buckets tenants by average changes/day with the
	// paper's edges 0,1,2,3,6,12,24 (Figure 2(b)).
	ChangesPerDayHist []stats.Bucket
	// FracAtLeastOnePerDay, FracAtLeastSixPerDay and FracMoreThan24PerDay
	// are the cumulative fractions the paper quotes (>78%, >52%, ≈28%).
	FracAtLeastOnePerDay float64
	FracAtLeastSixPerDay float64
	FracMoreThan24PerDay float64
	// OneStepShare and AtMostTwoStepsShare are the step-size statistics
	// behind the estimator's 0/1/2-step constraint (≈90% and ≈98%).
	OneStepShare        float64
	AtMostTwoStepsShare float64
}
