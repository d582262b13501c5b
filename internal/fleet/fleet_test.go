package fleet

import (
	"context"
	"errors"
	"testing"

	"daasscale/internal/estimator"
	"daasscale/internal/resource"
)

var cat = resource.LockStepCatalog()

func TestArchetypeString(t *testing.T) {
	names := map[Archetype]string{
		Steady: "steady", Diurnal: "diurnal", Bursty: "bursty", Spiky: "spiky", Growing: "growing",
	}
	for a, n := range names {
		if a.String() != n {
			t.Errorf("%d = %q", a, a.String())
		}
	}
	if Archetype(99).String() != "archetype(99)" {
		t.Error("unknown archetype name")
	}
}

// TestGenerateFleetShape checks the tenant generator Stream runs: IDs,
// series length, non-negative demand and archetype diversity.
func TestGenerateFleetShape(t *testing.T) {
	fleet := generateFleet(50, 7, 1)
	seen := map[Archetype]bool{}
	for i := range fleet {
		tn := &fleet[i]
		if tn.ID != i {
			t.Errorf("tenant %d has ID %d", i, tn.ID)
		}
		if len(tn.Demand) != 7*IntervalsPerDay {
			t.Fatalf("tenant %d has %d intervals", i, len(tn.Demand))
		}
		if tn.Days() != 7 {
			t.Errorf("tenant %d days = %d", i, tn.Days())
		}
		seen[tn.Archetype] = true
		for j, d := range tn.Demand {
			for _, k := range resource.Kinds {
				if d[k] < 0 {
					t.Fatalf("tenant %d interval %d negative demand %v", i, j, d)
				}
			}
		}
	}
	if len(seen) < 4 {
		t.Errorf("archetype diversity too low: %v", seen)
	}
}

func TestGenerateFleetDeterminism(t *testing.T) {
	a := generateFleet(5, 2, 42)
	b := generateFleet(5, 2, 42)
	for i := range a {
		for j := range a[i].Demand {
			if a[i].Demand[j] != b[i].Demand[j] {
				t.Fatalf("fleet not deterministic at tenant %d interval %d", i, j)
			}
		}
	}
}

func TestChangeEvents(t *testing.T) {
	assignment := []resource.Container{
		cat.AtStep(0), cat.AtStep(0), cat.AtStep(2), cat.AtStep(1), cat.AtStep(1),
	}
	events := changeEventsInto(assignment, nil)
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Interval != 2 || events[0].FromStep != 0 || events[0].ToStep != 2 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[0].StepDelta() != 2 || events[1].StepDelta() != 1 {
		t.Errorf("step deltas wrong: %+v", events)
	}
}

// streamFleet runs Stream over a lock-step fleet and returns its result.
func streamFleet(t *testing.T, tenants, days int, seed int64) StreamResult {
	t.Helper()
	res, err := Stream(context.Background(), mustFleetSpec(t, tenants, days, seed, WithCatalog(cat)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// streamCalibration runs StreamCalibration and returns its result.
func streamCalibration(t *testing.T, configs, intervalsPer int, seed int64) CalibrationResult {
	t.Helper()
	spec, err := NewCalibrationSpec(configs, intervalsPer, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := StreamCalibration(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAnalyzeReproducesFigure2Shape(t *testing.T) {
	// The Section 2.2 claims, as shapes: most changes happen within an hour
	// of the previous one; a large majority of tenants change at least once
	// a day; a substantial fraction change many times a day; and resizes
	// are overwhelmingly small steps (Section 4: ≈90% one step, ≈98% ≤2).
	a := streamFleet(t, 400, 7, 7).Analysis
	if a.Tenants != 400 || a.TotalChanges == 0 {
		t.Fatalf("analysis empty: %+v", a)
	}
	if a.IEIWithin60Min < 0.6 {
		t.Errorf("IEI within 60 min = %v, want the majority", a.IEIWithin60Min)
	}
	if a.FracAtLeastOnePerDay < 0.6 {
		t.Errorf("tenants with ≥1 change/day = %v, want a large majority", a.FracAtLeastOnePerDay)
	}
	if a.FracAtLeastSixPerDay < 0.3 {
		t.Errorf("tenants with ≥6 changes/day = %v, want a substantial fraction", a.FracAtLeastSixPerDay)
	}
	if a.FracAtLeastOnePerDay < a.FracAtLeastSixPerDay || a.FracAtLeastSixPerDay < a.FracMoreThan24PerDay {
		t.Errorf("cumulative fractions must be monotone: %+v", a)
	}
	if a.OneStepShare < 0.7 {
		t.Errorf("one-step share = %v, want dominant", a.OneStepShare)
	}
	if a.AtMostTwoStepsShare < 0.9 {
		t.Errorf("≤2-step share = %v, want ≈0.98", a.AtMostTwoStepsShare)
	}
	if a.AtMostTwoStepsShare < a.OneStepShare {
		t.Error("≤2-step share cannot be below the 1-step share")
	}
	// The histogram uses the paper's buckets and conserves tenants.
	total := 0
	for _, b := range a.ChangesPerDayHist {
		total += b.Count
	}
	if total != 400 {
		t.Errorf("histogram lost tenants: %d", total)
	}
	// The CDF is monotone and ends at 1.
	last := 0.0
	for _, p := range a.IEICDF {
		if p.Fraction < last {
			t.Fatalf("CDF not monotone at %v", p)
		}
		last = p.Fraction
	}
	if last != 1 {
		t.Errorf("CDF should end at 1, got %v", last)
	}
}

func TestAnalyzeEmptyFleet(t *testing.T) {
	res := streamFleet(t, 0, 7, 1)
	if a := res.Analysis; a.Tenants != 0 || a.TotalChanges != 0 || a.OneStepShare != 0 || res.Shards != 0 {
		t.Errorf("empty fleet analysis should be zero: %+v", res)
	}
}

func TestWaitSamplesAndFigure4Shape(t *testing.T) {
	cal := streamCalibration(t, 120, 4, 3)
	cpu := cal.Digests[0]
	if cpu.Kind() != resource.CPU {
		t.Fatalf("first digest is for %v", cpu.Kind())
	}
	// Figure 4: utilization and waits correlate positively but weakly — an
	// increasing trend with a wide band.
	rho, err := cpu.Correlation()
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.2 || rho > 0.98 {
		t.Errorf("CPU wait-utilization correlation = %v, want positive but imperfect", rho)
	}
	// The paper's two counterexample populations must both exist: high
	// utilization with small waits, and (some) low utilization with
	// nontrivial waits.
	if cpu.HighCount() == 0 || cpu.HighMs().Quantile(0) >= 10_000 {
		t.Error("expected high-utilization/low-wait samples (utilization is not demand)")
	}
	if cpu.LowCount() == 0 || cpu.LowMs().Max() <= 1_000 {
		t.Error("expected low-utilization samples with nontrivial waits")
	}
}

func TestFigure6SeparationAndCalibration(t *testing.T) {
	cal := streamCalibration(t, 150, 4, 5)
	for _, d := range cal.Digests {
		k := d.Kind()
		if d.LowCount() < 30 || d.HighCount() < 30 {
			t.Fatalf("%v: not enough samples per side (%d low, %d high)", k, d.LowCount(), d.HighCount())
		}
		// Figure 6's key property: clear separation between the wait
		// distributions at low and high utilization.
		if sep := d.Separation(); sep < 2 {
			t.Errorf("%v: separation = %v, want the high-utilization waits well above", k, sep)
		}
		// Percentage waits also separate (Figure 6(c) vs 6(d)).
		lowPct := d.LowPct().Quantile(0.5)
		highPct := d.HighPct().Quantile(0.5)
		if highPct <= lowPct {
			t.Errorf("%v: %%-wait medians do not separate: low %v high %v", k, lowPct, highPct)
		}
	}

	th := cal.Thresholds
	if err := th.Validate(); err != nil {
		t.Fatalf("calibrated thresholds invalid: %v", err)
	}
	for _, k := range calibrationKinds {
		if th.WaitLowMs[k] >= th.WaitHighMs[k] {
			t.Errorf("%v: calibrated low %v not below high %v", k, th.WaitLowMs[k], th.WaitHighMs[k])
		}
	}
}

func TestCalibrateKeepsDefaultsWithoutSamples(t *testing.T) {
	def := estimator.DefaultThresholds()
	if th := CalibrateDigests(nil); th != def {
		t.Error("calibration without digests should keep the defaults")
	}
	if th := CalibrateDigests(newCalibrationDigests(0)); th != def {
		t.Error("calibration over empty digests should keep the defaults")
	}
	if th := streamCalibration(t, 0, 4, 1).Thresholds; th != def {
		t.Error("a zero-config calibration run should keep the defaults")
	}
	if err := def.Validate(); err != nil {
		t.Errorf("default calibration invalid: %v", err)
	}
}

// archetypeChangesPerDay reports the fleet-level container-change rate per
// archetype: total changes divided by total tenant-days. A ratio of integer
// totals rather than a mean of per-tenant rates, so it streams and merges
// exactly.
func archetypeChangesPerDay(a *Aggregate) map[Archetype]float64 {
	out := map[Archetype]float64{}
	for i := Archetype(0); i < numArchetypes; i++ {
		if a.archDays[i] > 0 {
			out[i] = float64(a.archChanges[i]) / float64(a.archDays[i])
		}
	}
	return out
}

func TestArchetypeBreakdown(t *testing.T) {
	br := archetypeChangesPerDay(streamFleet(t, 300, 5, 13).Aggregate)
	if len(br) < 4 {
		t.Fatalf("breakdown covers %d archetypes", len(br))
	}
	for a, v := range br {
		if v < 0 {
			t.Errorf("%v: negative changes/day %v", a, v)
		}
	}
	// Spiky tenants must churn clearly more than steady ones. (Steady
	// tenants still flap when their level sits near a container boundary —
	// the phenomenon hysteresis exists for — so the gap is bounded.)
	if br[Spiky] < 1.5*br[Steady] {
		t.Errorf("spiky (%v) should clearly exceed steady (%v)", br[Spiky], br[Steady])
	}
	if got := archetypeChangesPerDay(NewAggregate(0)); len(got) != 0 {
		t.Errorf("empty fleet breakdown = %v", got)
	}
}

// TestFleetContextCancellation checks a canceled context aborts a
// calibration run with the context error (TestStreamContextCancel covers
// Stream).
func TestFleetContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, err := NewCalibrationSpec(64, 2, 1, WithShardSize(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StreamCalibration(ctx, spec, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("StreamCalibration: err = %v, want context.Canceled", err)
	}
}
