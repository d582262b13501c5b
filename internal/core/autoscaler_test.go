package core

import (
	"strings"
	"testing"

	"daasscale/internal/budget"
	"daasscale/internal/estimator"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

var cat = resource.LockStepCatalog()

func mustScaler(t *testing.T, cfg Config) *AutoScaler {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = cat
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// snap builds a snapshot for the scaler's current container.
type snapOpts struct {
	cpuUtil, cpuWaits float64
	ioUtil, ioWaits   float64
	memWaits          float64
	lockWaits         float64
	p95               float64
	reads             float64
	memUsed           float64
}

func makeSnap(a *AutoScaler, interval int, o snapOpts) telemetry.Snapshot {
	c := a.Container()
	var s telemetry.Snapshot
	s.Interval = interval
	s.Container = c.Name
	s.Step = c.Step
	s.Cost = c.Cost
	s.Utilization[resource.CPU] = o.cpuUtil
	s.Utilization[resource.DiskIO] = o.ioUtil
	s.Utilization[resource.Memory] = 0.9
	s.WaitMs[telemetry.WaitCPU] = o.cpuWaits
	s.WaitMs[telemetry.WaitDiskIO] = o.ioWaits
	s.WaitMs[telemetry.WaitMemory] = o.memWaits
	s.WaitMs[telemetry.WaitLock] = o.lockWaits
	s.WaitMs[telemetry.WaitSystem] = 500
	s.AvgLatencyMs = o.p95 / 2
	s.P95LatencyMs = o.p95
	s.PhysicalReads = o.reads
	s.MemoryUsedMB = o.memUsed
	s.Transactions = 1000
	s.OfferedRPS = 100
	return s
}

func drive(a *AutoScaler, n int, o snapOpts) Decision {
	var d Decision
	for i := 0; i < n; i++ {
		d = a.Observe(makeSnap(a, i, o))
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing catalog should fail")
	}
	if _, err := New(Config{Catalog: cat, Goal: LatencyGoal{Kind: GoalP95}}); err == nil {
		t.Error("goal without target should fail")
	}
	bad := estimator.DefaultThresholds()
	bad.UtilHigh = 5
	if _, err := New(Config{Catalog: cat, Thresholds: bad}); err == nil {
		t.Error("invalid thresholds should fail")
	}
}

func TestDefaults(t *testing.T) {
	a := mustScaler(t, Config{})
	if a.Container().Name != "C0" {
		t.Errorf("initial container = %s, want smallest", a.Container().Name)
	}
	if a.bud == nil || a.bud.Available() == 0 {
		t.Error("default budget should be unlimited")
	}
}

func TestGoalKindLatencyStateStrings(t *testing.T) {
	if GoalNone.String() != "none" || GoalP95.String() != "p95" || GoalAvg.String() != "avg" {
		t.Error("goal kind names")
	}
	if GoalKind(9).String() != "goalkind(9)" {
		t.Error("unknown goal kind")
	}
	if LatencyUnknown.String() != "unknown" || LatencyGood.String() != "GOOD" || LatencyBad.String() != "BAD" {
		t.Error("latency state names")
	}
	if LatencyState(9).String() != "latencystate(9)" {
		t.Error("unknown latency state")
	}
}

func TestWarmupHoldsSteady(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(4)})
	d := a.Observe(makeSnap(a, 0, snapOpts{cpuUtil: 0.99, cpuWaits: 1e6, p95: 5000}))
	if d.Changed {
		t.Error("no decision should be taken before minimum telemetry history")
	}
	if !strings.Contains(strings.Join(d.Explanations, ";"), "warming up") {
		t.Errorf("explanations = %v", d.Explanations)
	}
}

func TestDemandDrivenScaleUpNoGoal(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(2)})
	d := drive(a, 4, snapOpts{cpuUtil: 0.9, cpuWaits: 400_000, p95: 300})
	if !d.Changed || a.Container().Step <= 2 {
		t.Errorf("demand should scale up without a goal: %s (%+v)", a.Container().Name, d.Demand.Steps)
	}
}

func TestGoalMetSuppressesScaleUp(t *testing.T) {
	// Section 2.3: if latency goals are met, allocate a smaller container
	// even if there is demand for a larger one.
	a := mustScaler(t, Config{Initial: cat.AtStep(2), Goal: LatencyGoal{GoalP95, 500}})
	d := drive(a, 6, snapOpts{cpuUtil: 0.9, cpuWaits: 400_000, p95: 100})
	if d.Changed || a.Container().Step != 2 {
		t.Errorf("goal met: demand must not scale up, at %s", a.Container().Name)
	}
	if d.Latency != LatencyGood {
		t.Errorf("latency state = %v", d.Latency)
	}
}

func TestGoalViolatedWithDemandScalesUp(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(2), Goal: LatencyGoal{GoalP95, 200}})
	d := drive(a, 4, snapOpts{cpuUtil: 0.9, cpuWaits: 400_000, p95: 900})
	if !d.Changed || a.Container().Step <= 2 {
		t.Errorf("BAD latency with demand should scale up: %s", a.Container().Name)
	}
	if d.Latency != LatencyBad {
		t.Errorf("latency state = %v", d.Latency)
	}
}

func TestGoalViolatedWithoutDemandHolds(t *testing.T) {
	// The Figure 13 mechanism: latency BAD but waits are all lock waits —
	// adding resources will not help, so Auto holds.
	a := mustScaler(t, Config{Initial: cat.AtStep(2), Goal: LatencyGoal{GoalP95, 200}})
	d := drive(a, 8, snapOpts{cpuUtil: 0.2, cpuWaits: 2_000, lockWaits: 5_000_000, p95: 900})
	if d.Changed || a.Container().Step != 2 {
		t.Errorf("lock-bound BAD latency must not scale up: %s", a.Container().Name)
	}
	if !strings.Contains(strings.Join(d.Explanations, ";"), "bottleneck beyond resources") {
		t.Errorf("expected bottleneck explanation: %v", d.Explanations)
	}
}

func TestScaleDownRequiresPersistence(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(5), DownHoldIntervals: 3, DisableBallooning: true})
	idle := snapOpts{cpuUtil: 0.02, cpuWaits: 10, ioUtil: 0.02, ioWaits: 10, p95: 20}
	// Warmup (3) + the first two scale-down estimates: no change yet.
	d := drive(a, 4, idle)
	if d.Changed {
		t.Fatalf("scale-down before hold expired (streak must reach 3)")
	}
	drive(a, 3, idle)
	if a.Container().Step != 4 {
		t.Errorf("persistent low demand should scale down one step: %s", a.Container().Name)
	}
}

func TestScaleDownBlockedWithoutLatencyHeadroom(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(5), Goal: LatencyGoal{GoalP95, 100}, DisableBallooning: true})
	// Latency at 90% of goal: above the 0.8 margin → no scale-down.
	d := drive(a, 10, snapOpts{cpuUtil: 0.02, cpuWaits: 10, p95: 90})
	if d.Changed {
		t.Errorf("scale-down without headroom should be blocked")
	}
	// With ample headroom it proceeds.
	a2 := mustScaler(t, Config{Initial: cat.AtStep(5), Goal: LatencyGoal{GoalP95, 100}, DisableBallooning: true})
	d = drive(a2, 10, snapOpts{cpuUtil: 0.02, cpuWaits: 10, p95: 20})
	if !d.Changed && a2.Container().Step == 5 {
		t.Errorf("scale-down with headroom should proceed: %s", a2.Container().Name)
	}
}

func TestBudgetConstrainsScaleUp(t *testing.T) {
	const total = 80*7 + 30
	bud, err := budget.New(budget.Aggressive, total, 80, 7, 270, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := mustScaler(t, Config{Initial: cat.AtStep(0), Budget: bud, Catalog: cat})
	// Saturation demand wants +2 steps → C2 (cost 30), but the bucket can
	// only burst to ≈37; C2 is affordable once, then the budget pins C0/C1.
	var constrained bool
	for i := 0; i < 30; i++ {
		d := a.Observe(makeSnap(a, i, snapOpts{cpuUtil: 0.99, cpuWaits: 2_000_000, p95: 4000}))
		if d.BudgetConstrained {
			constrained = true
		}
		if a.Container().Cost > d.BudgetAvailable+1e-9 && i > 0 {
			t.Fatalf("interval %d: chose container costing %v with only %v available",
				i, a.Container().Cost, d.BudgetAvailable)
		}
	}
	if !constrained {
		t.Error("budget should have constrained the scale-up at some point")
	}
	if bud.Spent() > total {
		t.Errorf("budget exceeded: %v > %v", bud.Spent(), total)
	}
}

func TestMemoryScaleDownOnlyViaBalloon(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(4)}) // ballooning on
	idle := snapOpts{cpuUtil: 0.02, cpuWaits: 10, p95: 20, reads: 50, memUsed: 7000}
	var sawBalloonTarget bool
	var changedAt = -1
	cur := 7000.0
	for i := 0; i < 60 && changedAt < 0; i++ {
		o := idle
		o.memUsed = cur
		d := a.Observe(makeSnap(a, i, o))
		if d.BalloonTargetMB > 0 {
			sawBalloonTarget = true
			cur = d.BalloonTargetMB // engine follows the target, I/O flat
		}
		if d.Changed {
			changedAt = i
		}
	}
	if !sawBalloonTarget {
		t.Fatal("balloon probe never started")
	}
	if changedAt < 0 {
		t.Fatal("balloon success should have allowed a scale-down")
	}
	if a.Container().Step != 3 {
		t.Errorf("container = %s, want C3", a.Container().Name)
	}
}

func TestBalloonAbortPreventsScaleDown(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(4)})
	idle := snapOpts{cpuUtil: 0.02, cpuWaits: 10, p95: 20, reads: 50, memUsed: 7000}
	cur := 7000.0
	for i := 0; i < 40; i++ {
		o := idle
		o.memUsed = cur
		if cur < 6500 {
			o.reads = 50_000 // I/O explodes once the balloon bites
		}
		d := a.Observe(makeSnap(a, i, o))
		if d.BalloonTargetMB > 0 {
			cur = d.BalloonTargetMB
		} else {
			cur = 7000 // reverted
		}
		if d.Changed {
			t.Fatalf("scale-down happened despite balloon abort (interval %d)", i)
		}
	}
}

func TestAvgGoalUsed(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(2), Goal: LatencyGoal{GoalAvg, 100}})
	// avg = p95/2 in makeSnap; p95=300 → avg=150 > 100 → BAD.
	d := drive(a, 4, snapOpts{cpuUtil: 0.9, cpuWaits: 400_000, p95: 300})
	if d.Latency != LatencyBad {
		t.Errorf("avg goal should be violated: %v", d.Latency)
	}
	if !d.Changed {
		t.Error("should scale up")
	}
}

func TestExtremeDemandJumpsTwoSteps(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(2)})
	drive(a, 4, snapOpts{cpuUtil: 0.99, cpuWaits: 2_000_000, p95: 4000})
	if a.Container().Step < 4 {
		t.Errorf("extreme saturation should jump 2 steps: %s", a.Container().Name)
	}
}

func TestDecisionCarriesExplanations(t *testing.T) {
	a := mustScaler(t, Config{Initial: cat.AtStep(2)})
	d := drive(a, 4, snapOpts{cpuUtil: 0.9, cpuWaits: 400_000, p95: 300})
	joined := strings.Join(d.Explanations, ";")
	if !strings.Contains(joined, "scale-up cpu") || !strings.Contains(joined, "container C") {
		t.Errorf("explanations incomplete: %v", d.Explanations)
	}
}
