package sim

import (
	"context"
	"math"
	"testing"

	"daasscale/internal/engine"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

var cat = resource.LockStepCatalog()

func shortTrace() *trace.Trace {
	return trace.Trace2(120, 7)
}

func TestRunValidation(t *testing.T) {
	if _, err := NewRunner().Run(context.Background(), Spec{}); err == nil {
		t.Error("empty spec should fail")
	}
	if _, err := NewRunner().Run(context.Background(), Spec{Workload: workload.DS2(), Trace: shortTrace()}); err == nil {
		t.Error("missing policy should fail")
	}
}

func TestRunBasics(t *testing.T) {
	res, err := NewRunner().Run(context.Background(), Spec{
		Workload: workload.DS2(),
		Trace:    shortTrace(),
		Policy:   policy.NewStatic("Fixed", cat.AtStep(5)),
		Seed:     1,
		GoalMs:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "Fixed" || res.Workload != "ds2" || res.Trace != "trace2" {
		t.Errorf("identity fields: %+v", res)
	}
	if res.Intervals != 120 || len(res.Series) != 120 {
		t.Fatalf("intervals = %d, series = %d", res.Intervals, len(res.Series))
	}
	if res.TotalCost != 120*90 {
		t.Errorf("total cost = %v, want %v", res.TotalCost, 120*90)
	}
	if res.AvgCostPerInterval != 90 {
		t.Errorf("avg cost = %v", res.AvgCostPerInterval)
	}
	if res.Changes != 0 || res.ChangeFraction != 0 {
		t.Errorf("static policy changed: %d", res.Changes)
	}
	// Note: avg can exceed p95 for heavy-tailed runs (a few huge cold-start
	// samples drag the mean), so only positivity is asserted.
	if res.P95Ms <= 0 || res.AvgMs <= 0 {
		t.Errorf("latency stats implausible: p95=%v avg=%v", res.P95Ms, res.AvgMs)
	}
	if !res.MeetsGoal(1e9) || res.MeetsGoal(0.001) {
		t.Error("MeetsGoal logic")
	}
	// Series sanity: performance factor defined, wait shares sum to ≈1
	// when there are waits.
	pt := res.Series[60]
	if math.IsNaN(pt.PerformanceFactor) {
		t.Error("performance factor should be defined when a goal is set")
	}
	var waitSum float64
	for _, w := range pt.WaitPct {
		waitSum += w
	}
	if waitSum < 0.99 || waitSum > 1.01 {
		t.Errorf("wait shares sum to %v", waitSum)
	}
	if pt.ContainerCPUFrac <= 0 || pt.ContainerCPUFrac > 1 {
		t.Errorf("container CPU fraction = %v", pt.ContainerCPUFrac)
	}
}

func TestRunDeterminism(t *testing.T) {
	spec := func() Spec {
		return Spec{
			Workload: workload.TPCC(),
			Trace:    trace.Trace4(150, 3),
			Policy:   policy.NewStatic("Fixed", cat.AtStep(4)),
			Seed:     5,
		}
	}
	a, err := NewRunner().Run(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().Run(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}
	if a.P95Ms != b.P95Ms || a.TotalCost != b.TotalCost {
		t.Errorf("runs diverged: %v/%v vs %v/%v", a.P95Ms, a.TotalCost, b.P95Ms, b.TotalCost)
	}
}

func TestRunNoGoalPerformanceFactorNaN(t *testing.T) {
	res, err := NewRunner().Run(context.Background(), Spec{
		Workload: workload.DS2(),
		Trace:    trace.Trace1(30, 2),
		Policy:   policy.NewMax(cat),
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Series[10].PerformanceFactor) {
		t.Error("performance factor should be NaN without a goal")
	}
}

func TestDeriveOffline(t *testing.T) {
	off, err := deriveOffline(context.Background(), cat, workload.CPUIO(workload.DefaultCPUIOConfig()), trace.Trace2(200, 9), 11, engine.Options{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.MaxResult.Policy != "Max" {
		t.Errorf("max result policy = %s", off.MaxResult.Policy)
	}
	if len(off.Schedule) != 200 {
		t.Fatalf("schedule length = %d", len(off.Schedule))
	}
	// Peak provisions at least as much as Avg.
	if off.Peak.Cost < off.Avg.Cost {
		t.Errorf("peak %v cheaper than avg %v", off.Peak, off.Avg)
	}
	// The schedule must track the burst: its most expensive entry should
	// cost more than its cheapest.
	minC, maxC := math.Inf(1), 0.0
	for _, c := range off.Schedule {
		minC = math.Min(minC, c.Cost)
		maxC = math.Max(maxC, c.Cost)
	}
	if maxC <= minC {
		t.Errorf("schedule is flat (%v..%v) despite a bursty trace", minC, maxC)
	}
	// Every scheduled container must dominate the smallest one (sanity).
	for i, c := range off.Schedule {
		if !c.Alloc.Dominates(cat.Smallest().Alloc) {
			t.Fatalf("schedule[%d] bogus: %v", i, c)
		}
	}
}
