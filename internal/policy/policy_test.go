package policy

import (
	"testing"

	"daasscale/internal/core"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

var cat = resource.LockStepCatalog()

func snapFor(c resource.Container, p95, cpuUtil float64) telemetry.Snapshot {
	var s telemetry.Snapshot
	s.Container = c.Name
	s.Step = c.Step
	s.Cost = c.Cost
	s.P95LatencyMs = p95
	s.AvgLatencyMs = p95 / 2
	s.Utilization[resource.CPU] = cpuUtil
	s.Utilization[resource.Memory] = 0.9
	return s
}

func TestStaticNeverChanges(t *testing.T) {
	p := NewStatic("Peak", cat.AtStep(7))
	if p.Name() != "Peak" {
		t.Errorf("name = %s", p.Name())
	}
	for i := 0; i < 5; i++ {
		d := p.Observe(snapFor(p.Container(), 10_000, 1.0))
		if d.Changed || d.Target.Name != "C7" {
			t.Fatalf("static policy changed: %+v", d)
		}
	}
}

func TestNewMax(t *testing.T) {
	p := NewMax(cat)
	if p.Container().Name != "C10" || p.Name() != "Max" {
		t.Errorf("Max = %s/%s", p.Name(), p.Container().Name)
	}
}

func TestTraceOracleFollowsSchedule(t *testing.T) {
	sched := []resource.Container{cat.AtStep(0), cat.AtStep(2), cat.AtStep(2), cat.AtStep(1)}
	p, err := NewTraceOracle(sched)
	if err != nil {
		t.Fatal(err)
	}
	if p.Container().Name != "C0" {
		t.Errorf("initial = %s", p.Container().Name)
	}
	d := p.Observe(telemetry.Snapshot{})
	if d.Target.Name != "C2" || !d.Changed {
		t.Errorf("step 1: %+v", d)
	}
	d = p.Observe(telemetry.Snapshot{})
	if d.Target.Name != "C2" || d.Changed {
		t.Errorf("step 2 should be unchanged: %+v", d)
	}
	d = p.Observe(telemetry.Snapshot{})
	if d.Target.Name != "C1" || !d.Changed {
		t.Errorf("step 3: %+v", d)
	}
	// Beyond the schedule: stick to the last entry.
	d = p.Observe(telemetry.Snapshot{})
	if d.Target.Name != "C1" || d.Changed {
		t.Errorf("beyond schedule: %+v", d)
	}
}

func TestTraceOracleRequiresSchedule(t *testing.T) {
	if _, err := NewTraceOracle(nil); err == nil {
		t.Error("empty schedule should fail")
	}
}

func TestUtilValidation(t *testing.T) {
	if _, err := NewUtil(cat, cat.Smallest(), UtilConfig{}); err == nil {
		t.Error("missing goal should fail")
	}
	p, err := NewUtil(cat, resource.Container{}, DefaultUtilConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if p.Container().Name != "C0" {
		t.Errorf("default initial = %s", p.Container().Name)
	}
}

func TestUtilScalesUpOnBadLatencyWithUse(t *testing.T) {
	p, _ := NewUtil(cat, cat.AtStep(1), DefaultUtilConfig(100))
	d := p.Observe(snapFor(p.Container(), 500, 0.8))
	if !d.Changed || p.Container().Step != 2 {
		t.Fatalf("first violation should scale one step: %s", p.Container().Name)
	}
	// Escalation: consecutive violations climb faster.
	d = p.Observe(snapFor(p.Container(), 500, 0.8))
	if p.Container().Step != 4 {
		t.Errorf("second consecutive violation should add 2 steps: %s", p.Container().Name)
	}
	d = p.Observe(snapFor(p.Container(), 500, 0.8))
	if p.Container().Step != 7 {
		t.Errorf("third consecutive violation should add 3 steps: %s", p.Container().Name)
	}
	if len(d.Explanations) == 0 {
		t.Error("util should explain its scale-ups")
	}
}

func TestUtilIgnoresIdleLatencyViolations(t *testing.T) {
	// Latency BAD but nothing utilized: per the rule, no scale-up.
	p, _ := NewUtil(cat, cat.AtStep(1), DefaultUtilConfig(100))
	d := p.Observe(snapFor(p.Container(), 500, 0.05))
	if d.Changed {
		t.Error("no utilization → no scale-up")
	}
}

func TestUtilCannotSeePastUtilization(t *testing.T) {
	// The core failure mode (Figure 13): a lock-bound workload with modest
	// utilization but BAD latency — Util keeps escalating anyway.
	p, _ := NewUtil(cat, cat.AtStep(1), DefaultUtilConfig(100))
	for i := 0; i < 5; i++ {
		p.Observe(snapFor(p.Container(), 400, 0.35))
	}
	if p.Container().Step < 8 {
		t.Errorf("lock-bound latency should have driven Util very high: %s", p.Container().Name)
	}
}

func TestUtilScalesDownAfterHold(t *testing.T) {
	cfg := DefaultUtilConfig(100)
	cfg.DownHoldIntervals = 3
	cfg.IgnoreMemoryForScaleDown = true
	p, _ := NewUtil(cat, cat.AtStep(5), cfg)
	for i := 0; i < 2; i++ {
		if d := p.Observe(snapFor(p.Container(), 20, 0.05)); d.Changed {
			t.Fatalf("scale-down before hold: interval %d", i)
		}
	}
	d := p.Observe(snapFor(p.Container(), 20, 0.05))
	if !d.Changed || p.Container().Step != 4 {
		t.Errorf("scale-down after hold: %s", p.Container().Name)
	}
	// Memory being "utilized" must not block the scale-down.
	if p.Container().Step != 4 {
		t.Error("memory cache fill blocked scale-down")
	}
}

func TestUtilMemoryRatchet(t *testing.T) {
	// The default Util tests every resource, and memory (cache fill) never
	// reads LOW — so it freezes at its size (the paper's ratchet effect).
	p, _ := NewUtil(cat, cat.AtStep(5), DefaultUtilConfig(100))
	for i := 0; i < 10; i++ {
		p.Observe(snapFor(p.Container(), 20, 0.05)) // memory util 0.9 in snapFor
	}
	if p.Container().Step != 5 {
		t.Errorf("memory-aware Util should freeze at its size: %s", p.Container().Name)
	}
}

func TestUtilViolationStreakResets(t *testing.T) {
	p, _ := NewUtil(cat, cat.AtStep(1), DefaultUtilConfig(100))
	p.Observe(snapFor(p.Container(), 500, 0.8)) // +1 → C2
	p.Observe(snapFor(p.Container(), 50, 0.8))  // GOOD: streak resets
	p.Observe(snapFor(p.Container(), 500, 0.8)) // +1 again → C3
	if p.Container().Step != 3 {
		t.Errorf("streak should reset after a good interval: %s", p.Container().Name)
	}
}

func TestAutoAdapter(t *testing.T) {
	scaler, err := core.New(core.Config{Catalog: cat, Initial: cat.AtStep(3)})
	if err != nil {
		t.Fatal(err)
	}
	p := NewAuto(scaler)
	if p.Name() != "Auto" || p.Container().Name != "C3" {
		t.Errorf("adapter basics: %s %s", p.Name(), p.Container().Name)
	}
	if p.scaler != scaler {
		t.Error("adapter does not wrap the scaler")
	}
	d := p.Observe(snapFor(p.Container(), 50, 0.5))
	if d.Target.Name != "C3" {
		t.Errorf("warmup decision target = %s", d.Target.Name)
	}
}

func TestScheduledPolicy(t *testing.T) {
	if _, err := NewScheduled(nil); err == nil {
		t.Error("empty schedule should fail")
	}
	if _, err := NewScheduled([]ScheduleEntry{{StartMinute: -1, Container: cat.AtStep(1)}}); err == nil {
		t.Error("negative start should fail")
	}
	if _, err := NewScheduled([]ScheduleEntry{
		{StartMinute: 60, Container: cat.AtStep(1)},
		{StartMinute: 60, Container: cat.AtStep(2)},
	}); err == nil {
		t.Error("duplicate start should fail")
	}
	// Business hours big, nights small.
	p, err := NewScheduled([]ScheduleEntry{
		{StartMinute: 9 * 60, Container: cat.AtStep(6)},
		{StartMinute: 19 * 60, Container: cat.AtStep(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "Sched" {
		t.Errorf("name = %s", p.Name())
	}
	// Minute 0 wraps to the previous evening's entry.
	if p.Container().Name != "C1" {
		t.Errorf("midnight container = %s, want C1", p.Container().Name)
	}
	changes := 0
	for m := 0; m < 2*MinutesPerDay; m++ {
		d := p.Observe(telemetry.Snapshot{})
		if d.Changed {
			changes++
		}
		hour := (m + 1) % MinutesPerDay / 60
		want := "C1"
		if hour >= 9 && hour < 19 {
			want = "C6"
		}
		if d.Target.Name != want {
			t.Fatalf("minute %d (hour %d): container %s, want %s", m, hour, d.Target.Name, want)
		}
	}
	if changes != 4 {
		t.Errorf("changes over two days = %d, want 4", changes)
	}
}
