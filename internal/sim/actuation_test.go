package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"daasscale/internal/actuate"
	"daasscale/internal/engine"
	"daasscale/internal/fabric"
	"daasscale/internal/faults"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// TestActuationPerfectChannelMatchesSynchronous: an actuated channel with
// zero latency and zero faults (Enable alone) must reproduce the
// synchronous path bit for bit — the asynchronous machinery adds nothing
// but the counters.
func TestActuationPerfectChannelMatchesSynchronous(t *testing.T) {
	spec := Spec{
		Workload: workload.DS2(),
		Trace:    trace.Trace2(90, 4),
		Policy:   chaosAutoPolicy(t),
		Seed:     17,
	}
	sync, err := NewRunner().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Policy = chaosAutoPolicy(t) // policies are stateful; fresh one per run
	spec.Actuation = actuate.Config{Enable: true}
	async, err := NewRunner().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if async.ActuationStats.Applied != sync.Changes {
		t.Errorf("perfect channel applied %d ops, synchronous path made %d changes",
			async.ActuationStats.Applied, sync.Changes)
	}
	if st := async.ActuationStats; st.Throttled+st.TransientFailures+st.Refused != 0 || st.Expired != 0 {
		t.Errorf("perfect channel reported faults: %s", async.ActuationStats)
	}
	// Strip the counters; everything else must match exactly.
	async.ActuationStats = actuate.Stats{}
	if fmt.Sprintf("%v", sync) != fmt.Sprintf("%v", async) {
		t.Errorf("perfect actuated channel diverged from synchronous path\nsync:  %+v\nasync: %+v",
			sync, async)
	}
}

// TestActuationDisabledLeavesZeroStats: the zero config keeps the
// historical code path — no actuator is built and the counters stay zero.
func TestActuationDisabledLeavesZeroStats(t *testing.T) {
	res, err := NewRunner().Run(context.Background(), Spec{
		Workload: workload.DS2(),
		Trace:    trace.Trace1(40, 1),
		Policy:   chaosAutoPolicy(t),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActuationStats != (actuate.Stats{}) {
		t.Errorf("disabled actuation produced stats: %+v", res.ActuationStats)
	}
}

// actuationChaosConfig is the shared lossy channel of the determinism
// tests: latency, jitter, throttles and failures all on.
func actuationChaosConfig() actuate.Config {
	return actuate.Config{
		Seed:              7,
		LatencyIntervals:  1,
		JitterIntervals:   1,
		FailRate:          0.15,
		ThrottleRate:      0.1,
		DeadlineIntervals: 8,
	}
}

// TestActuationComparisonDeterministicAcrossWorkers is the PR's headline
// property: a comparison with both telemetry faults and actuation chaos is
// bit-identical at any worker count — every random draw derives from the
// run seed, never from scheduling.
func TestActuationComparisonDeterministicAcrossWorkers(t *testing.T) {
	plan := faults.Uniform(0.15)
	plan.Seed = 2
	cs := ComparisonSpec{
		Workload:   workload.DS2(),
		Trace:      trace.Trace2(60, 7),
		GoalFactor: 5,
		Seed:       11,
		Faults:     plan,
		Actuation:  actuationChaosConfig(),
	}
	serial, err := NewRunner(WithParallelism(1)).RunComparison(context.Background(), cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 6} {
		par, err := NewRunner(WithParallelism(workers)).RunComparison(context.Background(), cs)
		if err != nil {
			t.Fatal(err)
		}
		// The Max series carries NaN performance factors (no goal), so
		// compare the rendered (NaN-stable) form byte for byte.
		if fmt.Sprintf("%v", serial) != fmt.Sprintf("%v", par) {
			t.Errorf("workers=%d: actuated comparison differs from serial", workers)
		}
	}
	auto, _ := serial.ByPolicy("Auto")
	if auto.ActuationStats.Ops == 0 {
		t.Error("Auto's resize channel saw no operations")
	}
	// The offline Max derivation stays synchronous so actuated and clean
	// comparisons share the same goal.
	max, _ := serial.ByPolicy("Max")
	if max.ActuationStats != (actuate.Stats{}) {
		t.Errorf("Max's offline run must stay synchronous, got %+v", max.ActuationStats)
	}
}

// TestActuationMultiTenantDeterministicAcrossWorkers: per-tenant actuation
// streams routed through the shared fabric survive the two-phase parallel
// schedule bit for bit.
func TestActuationMultiTenantDeterministicAcrossWorkers(t *testing.T) {
	plan := faults.Uniform(0.2)
	spec := MultiTenantSpec{
		Tenants: []TenantSpec{
			{ID: "web", Workload: workload.DS2(), Trace: trace.Trace1(120, 1), GoalMs: 60},
			{ID: "oltp", Workload: workload.TPCC(), Trace: trace.Trace4(120, 2), GoalMs: 200},
			{ID: "batch", Workload: workload.CPUIO(workload.DefaultCPUIOConfig()), Trace: trace.Trace2(120, 3), GoalMs: 80},
		},
		Servers:    2,
		Policy:     fabric.BestFit,
		EngineOpts: engine.Options{WarmStart: true},
		Seed:       9,
		Faults:     plan,
		Actuation:  actuationChaosConfig(),
	}
	serial, err := NewRunner(WithParallelism(1)).RunMultiTenant(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := NewRunner(WithParallelism(workers)).RunMultiTenant(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: actuated cluster run differs from serial\nserial: %+v\nparallel: %+v",
				workers, serial, par)
		}
	}
	ops := 0
	for _, tr := range serial.Tenants {
		ops += tr.Actuation.Ops
		if tr.TotalCost <= 0 {
			t.Errorf("tenant %s accrued no cost under actuation chaos", tr.ID)
		}
	}
	if ops == 0 {
		t.Error("no tenant's resize channel saw an operation")
	}
}

// TestActuationThrottleBurstReconciles is the acceptance scenario: a storm
// throttling 100% of resize attempts for a window. The autoscaler
// survives, no resize lands during the storm, and once it lifts the
// level-triggered reconciliation applies the latest desired container —
// expired operations are re-issued, stale ones superseded, and the channel
// converges.
func TestActuationThrottleBurstReconciles(t *testing.T) {
	burst := actuate.Config{
		BurstStart:        10,
		BurstLen:          25,
		DeadlineIntervals: 4,
		MaxAttempts:       3,
	}
	res, err := NewRunner().Run(context.Background(), Spec{
		Workload:  workload.CPUIO(workload.DefaultCPUIOConfig()),
		Trace:     trace.Trace2(90, 2),
		Policy:    chaosAutoPolicy(t),
		Seed:      5,
		Actuation: burst,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.ActuationStats
	if st.Throttled == 0 {
		t.Fatalf("burst throttled nothing: %s", st)
	}
	if st.Applied == 0 {
		t.Fatalf("channel never converged after the burst: %s", st)
	}
	if st.Expired == 0 {
		t.Errorf("a 25-interval storm against a 4-interval deadline must expire operations: %s", st)
	}
	// No resize may land inside the storm window.
	cur := res.Series[0].Container
	for _, pt := range res.Series {
		if pt.Interval > burst.BurstStart && pt.Interval <= burst.BurstStart+burst.BurstLen && pt.Container != cur {
			t.Errorf("interval %d: container changed to %s during a 100%% throttle storm", pt.Interval, pt.Container)
		}
		cur = pt.Container
	}
	// After the storm the channel must have caught up at least once.
	if st.MaxEffectIntervals == 0 {
		t.Errorf("every applied op landed instantly despite a 25-interval storm: %s", st)
	}
	for name, v := range map[string]float64{"TotalCost": res.TotalCost, "P95Ms": res.P95Ms} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Errorf("%s not finite-positive after the storm: %v", name, v)
		}
	}
}

// TestActuationMultiTenantRefusalsRetry: an overpacked cluster refuses
// grows; on the actuated path each refused attempt is counted and the
// operation retries instead of silently reverting the controller.
func TestActuationMultiTenantRefusalsRetry(t *testing.T) {
	mk := func(cfg actuate.Config) MultiTenantResult {
		t.Helper()
		res, err := NewRunner().RunMultiTenant(context.Background(), MultiTenantSpec{
			Tenants: []TenantSpec{
				{ID: "a", Workload: workload.CPUIO(workload.DefaultCPUIOConfig()), Trace: trace.Trace2(90, 1), GoalMs: 40},
				{ID: "b", Workload: workload.CPUIO(workload.DefaultCPUIOConfig()), Trace: trace.Trace2(90, 2), GoalMs: 40},
				{ID: "c", Workload: workload.TPCC(), Trace: trace.Trace4(90, 3), GoalMs: 150},
			},
			Servers:    1, // one server: growth quickly runs out of room
			Policy:     fabric.BestFit,
			EngineOpts: engine.Options{WarmStart: true},
			Seed:       21,
			Actuation:  cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := mk(actuate.Config{Enable: true, DeadlineIntervals: 6})
	refused := 0
	for _, tr := range res.Tenants {
		refused += tr.RefusedResizes
		if tr.Actuation.Refused != tr.RefusedResizes {
			t.Errorf("tenant %s: actuator counted %d refusals, result says %d",
				tr.ID, tr.Actuation.Refused, tr.RefusedResizes)
		}
	}
	if refused == 0 {
		t.Fatal("an overpacked single-server cluster refused nothing")
	}
	if res.Refusals != refused {
		t.Errorf("fabric counted %d refusals, tenants counted %d", res.Refusals, refused)
	}
}

// TestActuationBallooningArmsCarryStats: the Figure 14 experiment drives
// its memory targets through the actuation channel when configured, and
// each arm reports its own counters.
func TestActuationBallooningArmsCarryStats(t *testing.T) {
	res, err := NewRunner().RunBallooning(context.Background(), BallooningSpec{
		Seed:      5,
		Intervals: 60,
		ShrinkAt:  20,
		Actuation: actuate.Config{LatencyIntervals: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []BallooningArm{res.Without, res.With} {
		if len(arm.Series) != 60 {
			t.Fatalf("%s: series has %d points, want 60", arm.Name, len(arm.Series))
		}
		if arm.Actuation.Ops == 0 {
			t.Errorf("%s: memory-target channel saw no operations", arm.Name)
		}
	}
	// The naive arm must still revert: the actuated channel delays but does
	// not lose the revert decision.
	if !res.Without.Aborted {
		t.Error("naive arm never reverted through the actuated channel")
	}
}

// TestActuationValidationRejectsBadConfigs: malformed actuation configs
// fail spec validation with the uniform sentinel on every Run* path.
func TestActuationValidationRejectsBadConfigs(t *testing.T) {
	bad := actuate.Config{FailRate: math.NaN()}
	r := NewRunner()
	ctx := context.Background()

	if _, err := r.Run(ctx, Spec{
		Workload: workload.DS2(), Trace: trace.Trace1(30, 1),
		Policy: chaosAutoPolicy(t), Actuation: bad,
	}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("Run: err = %v, want ErrInvalidSpec", err)
	}
	if _, err := r.RunComparison(ctx, ComparisonSpec{
		Workload: workload.DS2(), Trace: trace.Trace1(30, 1), GoalFactor: 2, Actuation: bad,
	}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("RunComparison: err = %v, want ErrInvalidSpec", err)
	}
	if _, err := r.RunMultiTenant(ctx, MultiTenantSpec{
		Tenants:   []TenantSpec{{ID: "a", Workload: workload.DS2(), Trace: trace.Trace1(30, 1)}},
		Actuation: bad,
	}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("RunMultiTenant: err = %v, want ErrInvalidSpec", err)
	}
	if _, err := r.RunBallooning(ctx, BallooningSpec{Actuation: bad}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("RunBallooning: err = %v, want ErrInvalidSpec", err)
	}
}

// TestActuationRunnerDefaultPropagates: a WithActuation runner applies its
// config to specs that don't set one, exactly like a spec-level config.
func TestActuationRunnerDefaultPropagates(t *testing.T) {
	cfg := actuationChaosConfig()
	spec := Spec{
		Workload: workload.DS2(),
		Trace:    trace.Trace1(60, 1),
		Policy:   chaosAutoPolicy(t),
		Seed:     4,
	}
	viaRunner, err := NewRunner(WithActuation(cfg)).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Policy = chaosAutoPolicy(t)
	spec.Actuation = cfg
	viaSpec, err := NewRunner().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if viaRunner.ActuationStats != viaSpec.ActuationStats {
		t.Fatalf("runner default config diverged from spec-level config:\n%+v\n%+v",
			viaRunner.ActuationStats, viaSpec.ActuationStats)
	}
	if viaRunner.ActuationStats.Ops == 0 {
		t.Fatal("runner default config actuated nothing")
	}
}

// TestActuationChaosCombinedCostWithinBound is the combined-chaos
// acceptance bound: telemetry faults AND a lossy resize channel together
// leave Auto's total cost within 30% of the clean run's — graceful
// degradation composes.
func TestActuationChaosCombinedCostWithinBound(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end comparison")
	}
	tr := trace.Trace2(900, 2)
	w := workload.CPUIO(workload.DefaultCPUIOConfig())
	base := ComparisonSpec{Workload: w, Trace: tr, GoalFactor: 1.25, Seed: 42}
	clean, err := NewRunner().RunComparison(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	chaos := base
	chaos.Faults = faults.Uniform(0.08)
	chaos.Faults.Seed = 1
	chaos.Actuation = actuate.Config{
		Seed:              3,
		LatencyIntervals:  1,
		FailRate:          0.1,
		ThrottleRate:      0.05,
		DeadlineIntervals: 10,
	}
	dirty, err := NewRunner().RunComparison(context.Background(), chaos)
	if err != nil {
		t.Fatal(err)
	}
	if clean.GoalMs != dirty.GoalMs {
		t.Fatalf("latency goals diverged: clean %v vs chaos %v (offline Max run must stay clean and synchronous)",
			clean.GoalMs, dirty.GoalMs)
	}
	ca := clean.MustByPolicy("Auto")
	da := dirty.MustByPolicy("Auto")
	lo, hi := ca.TotalCost*0.70, ca.TotalCost*1.30
	if da.TotalCost < lo || da.TotalCost > hi {
		t.Errorf("combined-chaos Auto cost %.0f outside ±30%% of clean cost %.0f",
			da.TotalCost, ca.TotalCost)
	}
	if math.IsNaN(da.P95Ms) || math.IsInf(da.P95Ms, 0) || da.P95Ms <= 0 {
		t.Errorf("combined-chaos Auto p95 not finite-positive: %v", da.P95Ms)
	}
	if da.FaultStats.Total() == 0 || da.ActuationStats.Ops == 0 {
		t.Errorf("combined chaos injected nothing: faults %v, actuation %s",
			da.FaultStats, da.ActuationStats)
	}
}
