package sim

import (
	"context"
	"testing"

	"daasscale/internal/telemetry"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

func TestRunComparisonValidation(t *testing.T) {
	if _, err := NewRunner().RunComparison(context.Background(), ComparisonSpec{}); err == nil {
		t.Error("missing workload/trace should fail")
	}
	if _, err := NewRunner().RunComparison(context.Background(), ComparisonSpec{
		Workload: workload.DS2(), Trace: trace.Trace1(30, 1), GoalFactor: 0.5,
	}); err == nil {
		t.Error("goal factor ≤ 1 should fail")
	}
}

// TestComparisonFigure9aShape asserts the qualitative result of Figure 9(a):
// CPUIO on the long-burst trace with a tight (1.25×Max) goal. Auto meets the
// goal at a fraction of Peak's and Util's cost; Avg is cheapest but violates
// the goal badly.
func TestComparisonFigure9aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end comparison")
	}
	comp, err := NewRunner().RunComparison(context.Background(), ComparisonSpec{
		Workload:   workload.CPUIO(workload.DefaultCPUIOConfig()),
		Trace:      trace.Trace2(900, 2),
		GoalFactor: 1.25,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	max := comp.MustByPolicy("Max")
	peak := comp.MustByPolicy("Peak")
	avg := comp.MustByPolicy("Avg")
	util := comp.MustByPolicy("Util")
	auto := comp.MustByPolicy("Auto")

	goal := comp.GoalMs
	if goal <= max.P95Ms {
		t.Fatalf("goal %v must exceed Max p95 %v", goal, max.P95Ms)
	}
	// Auto meets the goal (small tolerance for seed luck).
	if auto.P95Ms > goal*1.05 {
		t.Errorf("Auto p95 %v misses goal %v", auto.P95Ms, goal)
	}
	// Paper headline: Auto 1.5×–3× cheaper than the utilization-only
	// autoscaler at comparable latency.
	if util.AvgCostPerInterval < auto.AvgCostPerInterval*1.3 {
		t.Errorf("Util cost %v should be ≥1.3× Auto cost %v", util.AvgCostPerInterval, auto.AvgCostPerInterval)
	}
	// Auto far cheaper than provisioning for the peak.
	if peak.AvgCostPerInterval < auto.AvgCostPerInterval*1.5 {
		t.Errorf("Peak cost %v should dwarf Auto cost %v", peak.AvgCostPerInterval, auto.AvgCostPerInterval)
	}
	// Avg provisioning violates the goal by a lot.
	if avg.P95Ms < goal*2 {
		t.Errorf("Avg p95 %v should violate the goal %v badly", avg.P95Ms, goal)
	}
	// Max is the most expensive by far.
	if max.AvgCostPerInterval < 2*auto.AvgCostPerInterval {
		t.Errorf("Max cost %v vs Auto %v", max.AvgCostPerInterval, auto.AvgCostPerInterval)
	}
	// Auto changes containers on a small fraction of intervals.
	if auto.ChangeFraction > 0.2 {
		t.Errorf("Auto changes too often: %v", auto.ChangeFraction)
	}
}

// TestComparisonFigure9bLooseGoal asserts Figure 9(b)'s direction: with a
// loose (5×) goal, costs do not increase for the online policies.
func TestComparisonFigure9bLooseGoal(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end comparison")
	}
	tight, err := NewRunner().RunComparison(context.Background(), ComparisonSpec{
		Workload:   workload.CPUIO(workload.DefaultCPUIOConfig()),
		Trace:      trace.Trace2(900, 2),
		GoalFactor: 1.25,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := NewRunner().RunComparison(context.Background(), ComparisonSpec{
		Workload:   workload.CPUIO(workload.DefaultCPUIOConfig()),
		Trace:      trace.Trace2(900, 2),
		GoalFactor: 5,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	at, al := tight.MustByPolicy("Auto"), loose.MustByPolicy("Auto")
	if al.AvgCostPerInterval > at.AvgCostPerInterval*1.05 {
		t.Errorf("looser goal should not cost more: %v vs %v", al.AvgCostPerInterval, at.AvgCostPerInterval)
	}
	if al.P95Ms > loose.GoalMs {
		t.Errorf("Auto misses the loose goal: %v > %v", al.P95Ms, loose.GoalMs)
	}
	ut, ul := tight.MustByPolicy("Util"), loose.MustByPolicy("Util")
	if ul.AvgCostPerInterval > ut.AvgCostPerInterval {
		t.Errorf("Util should also relax with the goal: %v vs %v", ul.AvgCostPerInterval, ut.AvgCostPerInterval)
	}
}

// TestComparisonFigure10LockBound asserts Figure 10/13: on the lock-bound
// TPC-C workload with the spiky trace, Auto stays small (lock waits are not
// resource demand) while Util pays much more, and both meet the goal.
func TestComparisonFigure10LockBound(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end comparison")
	}
	comp, err := NewRunner().RunComparison(context.Background(), ComparisonSpec{
		Workload:   workload.TPCC(),
		Trace:      trace.Trace4(1440, 4),
		GoalFactor: 1.25,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	util := comp.MustByPolicy("Util")
	auto := comp.MustByPolicy("Auto")
	if auto.P95Ms > comp.GoalMs*1.05 {
		t.Errorf("Auto p95 %v misses goal %v", auto.P95Ms, comp.GoalMs)
	}
	if util.AvgCostPerInterval < auto.AvgCostPerInterval*1.4 {
		t.Errorf("lock-bound: Util %v should cost ≥1.4× Auto %v", util.AvgCostPerInterval, auto.AvgCostPerInterval)
	}
	// Figure 13(c): lock waits dominate during the bursts.
	lockDominated := 0
	for _, pt := range auto.Series {
		if pt.OfferedRPS > 200 && pt.WaitPct[telemetry.WaitLock] > 0.5 {
			lockDominated++
		}
	}
	if lockDominated < 20 {
		t.Errorf("expected lock-wait-dominated burst intervals, got %d", lockDominated)
	}
	// Figure 13(b): Auto's container selection stays in the 10–20% band of
	// the server (≲ C6) for the vast majority of intervals.
	small := 0
	for _, pt := range auto.Series {
		if pt.ContainerCPUFrac <= 0.25 {
			small++
		}
	}
	if frac := float64(small) / float64(len(auto.Series)); frac < 0.9 {
		t.Errorf("Auto used large containers too often: small fraction %v", frac)
	}
}

// TestComparisonFigure12Steady asserts Figure 12: even for a steady
// workload, Auto undercuts the utilization autoscaler while meeting the
// goal.
func TestComparisonFigure12Steady(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end comparison")
	}
	comp, err := NewRunner().RunComparison(context.Background(), ComparisonSpec{
		Workload:   workload.DS2(),
		Trace:      trace.Trace1(1440, 1),
		GoalFactor: 1.25,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	util := comp.MustByPolicy("Util")
	auto := comp.MustByPolicy("Auto")
	if auto.P95Ms > comp.GoalMs*1.05 {
		t.Errorf("Auto p95 %v misses goal %v", auto.P95Ms, comp.GoalMs)
	}
	if util.AvgCostPerInterval <= auto.AvgCostPerInterval {
		t.Errorf("Util %v should cost more than Auto %v even on steady load",
			util.AvgCostPerInterval, auto.AvgCostPerInterval)
	}
}

func TestComparisonByPolicyMissing(t *testing.T) {
	c := Comparison{}
	if _, ok := c.ByPolicy("nope"); ok {
		t.Error("missing policy should not be found")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByPolicy should panic")
		}
	}()
	c.MustByPolicy("nope")
}
