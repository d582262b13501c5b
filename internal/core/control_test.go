package core

import (
	"strings"
	"testing"

	"daasscale/internal/budget"
	"daasscale/internal/estimator"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

func mustBudget(t *testing.T, total float64, n int) *budget.Manager {
	t.Helper()
	b, err := budget.New(budget.Aggressive, total, n, cat.Smallest().Cost, cat.Largest().Cost, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// snapWith builds a snapshot with explicit utilization per resource and a
// latency trend shaped by the caller (used for the finer control-path
// tests).
func snapWith(a *AutoScaler, interval int, util map[resource.Kind]float64, waits map[telemetry.WaitClass]float64, p95 float64) telemetry.Snapshot {
	c := a.Container()
	var s telemetry.Snapshot
	s.Interval = interval
	s.Container = c.Name
	s.Step = c.Step
	s.Cost = c.Cost
	s.Utilization[resource.Memory] = 0.9
	for k, u := range util {
		s.Utilization[k] = u
	}
	for wc, w := range waits {
		s.WaitMs[wc] = w
	}
	s.WaitMs[telemetry.WaitSystem] += 500
	s.AvgLatencyMs = p95 / 2
	s.P95LatencyMs = p95
	s.Transactions = 1000
	s.OfferedRPS = 100
	s.MemoryUsedMB = 1500
	return s
}

func TestHeadroomScaleDown(t *testing.T) {
	// Utilization is MEDIUM (not LOW) on the current container, but the
	// usage would fit the next smaller container with headroom: the paper's
	// "demand can be met by a smaller container" estimate.
	a := mustScaler(t, Config{Initial: cat.AtStep(6), DisableBallooning: true})
	// C6 disk I/O = 1600 IOPS; utilization 0.40 = 640 IOPS; C5 has 1200:
	// 640 ≤ 0.7·1200 → candidate. CPU and log idle.
	o := map[resource.Kind]float64{resource.DiskIO: 0.40, resource.CPU: 0.05, resource.LogIO: 0.02}
	var changed bool
	for i := 0; i < 10 && !changed; i++ {
		d := a.Observe(snapWith(a, i, o, nil, 20))
		changed = d.Changed
		if changed && !strings.Contains(strings.Join(d.Explanations, ";"), "fits C5 with headroom") {
			t.Errorf("expected headroom explanation: %v", d.Explanations)
		}
	}
	if !changed || a.Container().Step != 5 {
		t.Fatalf("headroom scale-down should reach C5: %s", a.Container().Name)
	}
	// At C5 the same usage is 640/1200 = 0.53 > 0.7·(C4's 800)=560/800?
	// 640 > 560 → no further scale-down.
	for i := 10; i < 20; i++ {
		o2 := map[resource.Kind]float64{resource.DiskIO: 640.0 / 1200, resource.CPU: 0.05, resource.LogIO: 0.02}
		if d := a.Observe(snapWith(a, i, o2, nil, 20)); d.Changed {
			t.Fatalf("scale-down past the headroom limit: %s", a.Container().Name)
		}
	}
}

func TestHeadroomScaleDownBlockedByWaits(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(6), DisableBallooning: true})
	o := map[resource.Kind]float64{resource.DiskIO: 0.40}
	w := map[telemetry.WaitClass]float64{telemetry.WaitDiskIO: 50_000} // MEDIUM waits
	for i := 0; i < 10; i++ {
		if d := a.Observe(snapWith(a, i, o, w, 20)); d.Changed {
			t.Fatal("waits above LOW must block the headroom scale-down")
		}
	}
}

func TestDegradingTrendScalesUpEarly(t *testing.T) {
	// Latency still GOOD but trending toward the goal with real resource
	// demand behind it: the early-action path.
	a := mustScaler(t, Config{Initial: cat.AtStep(2), Goal: LatencyGoal{GoalP95, 400}})
	for i := 0; i < 8; i++ {
		p95 := 100 + 35*float64(i) // rising but below the goal
		u := map[resource.Kind]float64{resource.CPU: 0.8}
		w := map[telemetry.WaitClass]float64{telemetry.WaitCPU: 200_000 + 50_000*float64(i)}
		a.Observe(snapWith(a, i, u, w, p95))
	}
	if a.Container().Step <= 2 {
		t.Errorf("degrading latency with demand should scale up early: %s", a.Container().Name)
	}
}

func TestGoalAvgHonoursAveragePath(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(2), Goal: LatencyGoal{GoalAvg, 1000}})
	// p95 high but avg (p95/2 = 450) within the goal: latency GOOD.
	d := drive(a, 5, snapOpts{cpuUtil: 0.9, cpuWaits: 400_000, p95: 900})
	if d.Latency != LatencyGood {
		t.Errorf("avg goal met, state = %v", d.Latency)
	}
	if d.Changed {
		t.Error("goal met must suppress the scale-up")
	}
}

func TestPerDimensionCatalogPicksVariant(t *testing.T) {
	// With the Figure 1 catalog, CPU-only demand should buy a high-CPU
	// variant instead of the next full lock-step size.
	full := resource.DefaultCatalog()
	a := mustScaler(t, Config{Catalog: full, Initial: mustByName(t, full, "C4")})
	for i := 0; i < 6; i++ {
		u := map[resource.Kind]float64{resource.CPU: 0.92, resource.DiskIO: 0.2, resource.LogIO: 0.1}
		w := map[telemetry.WaitClass]float64{telemetry.WaitCPU: 400_000}
		a.Observe(snapWith(a, i, u, w, 500))
	}
	got := a.Container().Name
	if got != "C4-hicpu" {
		t.Errorf("CPU-only demand should pick the high-CPU variant, got %s", got)
	}
}

func mustByName(t *testing.T, cat *resource.Catalog, name string) resource.Container {
	t.Helper()
	c, ok := cat.ByName(name)
	if !ok {
		t.Fatalf("container %s missing", name)
	}
	return c
}

func TestBudgetExplanationPresent(t *testing.T) {
	bud := mustBudget(t, 80*7+10, 80)
	a := mustScaler(t, Config{Initial: cat.AtStep(0), Budget: bud})
	var saw bool
	for i := 0; i < 20 && !saw; i++ {
		d := a.Observe(makeSnap(a, i, snapOpts{cpuUtil: 0.99, cpuWaits: 2_000_000, p95: 4000}))
		if d.BudgetConstrained {
			saw = strings.Contains(strings.Join(d.Explanations, ";"), "constrained by budget")
		}
	}
	if !saw {
		t.Error("budget-constrained decisions must carry the explanation")
	}
}

func TestDecisionIntervalTracksSnapshots(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(3)})
	for i := 0; i < 5; i++ {
		d := a.Observe(makeSnap(a, i, snapOpts{cpuUtil: 0.2, p95: 30}))
		if d.Interval != i+1 {
			t.Fatalf("decision interval = %d, want %d", d.Interval, i+1)
		}
		if d.Target.Name != a.Container().Name {
			t.Fatalf("decision target out of sync")
		}
	}
}

func TestSensitivityMarginDefaults(t *testing.T) {
	cases := map[estimator.Sensitivity]float64{
		estimator.SensitivityLow:    0.95,
		estimator.SensitivityMedium: 0.85,
		estimator.SensitivityHigh:   0.70,
	}
	for sens, want := range cases {
		a := mustScaler(t, Config{Sensitivity: sens})
		if a.cfg.DownLatencyMargin != want {
			t.Errorf("%v margin = %v, want %v", sens, a.cfg.DownLatencyMargin, want)
		}
	}
	// Explicit override wins.
	a := mustScaler(t, Config{Sensitivity: estimator.SensitivityHigh, DownLatencyMargin: 0.5})
	if a.cfg.DownLatencyMargin != 0.5 {
		t.Errorf("explicit margin ignored: %v", a.cfg.DownLatencyMargin)
	}
}

func TestWindowConfigurationRespected(t *testing.T) {
	a := mustScaler(t, Config{Window: 8})
	for i := 0; i < 12; i++ {
		a.tm.Observe(telemetry.Snapshot{Interval: i})
	}
	if sig, _ := a.tm.Signals(); sig.Quality.IntervalsSeen != 8 {
		t.Errorf("telemetry window = %d, want 8", sig.Quality.IntervalsSeen)
	}
}

func TestNoActionWithoutSignals(t *testing.T) {
	// Medium utilization, moderate waits, no trend: the hold path.
	a := mustScaler(t, Config{Initial: cat.AtStep(3)})
	for i := 0; i < 10; i++ {
		u := map[resource.Kind]float64{resource.CPU: 0.5, resource.DiskIO: 0.5}
		w := map[telemetry.WaitClass]float64{telemetry.WaitCPU: 30_000}
		if d := a.Observe(snapWith(a, i, u, w, 50)); d.Changed {
			t.Fatalf("hold path violated at interval %d", i)
		}
	}
	if a.Container().Step != 3 {
		t.Errorf("container drifted: %s", a.Container().Name)
	}
}

func TestDecisionHistory(t *testing.T) {
	// The audit trail is the stream of Observe's decisions (the serving and
	// simulation layers record it as loop.DecisionRecord): one per interval,
	// in order, and the scale-ups this load causes are in it.
	a := mustScaler(t, Config{Initial: cat.AtStep(2)})
	var changed bool
	for i := 0; i < 6; i++ {
		d := a.Observe(makeSnap(a, i, snapOpts{cpuUtil: 0.9, cpuWaits: 400_000, p95: 300}))
		if d.Interval != i+1 {
			t.Errorf("decision %d: interval = %d, want %d", i, d.Interval, i+1)
		}
		changed = changed || d.Changed
	}
	if !changed {
		t.Error("the decisions should include the scale-ups this load caused")
	}
}
