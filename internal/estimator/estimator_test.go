package estimator

import (
	"strings"
	"testing"

	"daasscale/internal/resource"
	"daasscale/internal/stats"
	"daasscale/internal/telemetry"
)

func mustEstimator(t *testing.T, sens Sensitivity) *Estimator {
	t.Helper()
	e, err := New(DefaultThresholds(), sens)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sigBuilder assembles telemetry.Signals for rule tests.
type sigBuilder struct{ s telemetry.Signals }

func newSig() *sigBuilder {
	b := &sigBuilder{}
	b.s.Window = 10
	b.s.Latency.P95Ms = 100
	return b
}

func (b *sigBuilder) util(k resource.Kind, u float64) *sigBuilder {
	b.s.Resources[k].Utilization = u
	b.s.Current.Utilization[k] = u // steady signal: current matches median
	return b
}

func (b *sigBuilder) wait(k resource.Kind, ms, pct float64) *sigBuilder {
	b.s.Resources[k].WaitMs = ms
	b.s.Resources[k].WaitPct = pct
	b.s.Current.WaitMs[telemetry.WaitClassFor(k)] = ms
	// Keep the current snapshot's wait shares consistent with pct by
	// booking the remainder as lock waits.
	if pct > 0 && pct < 1 {
		b.s.Current.WaitMs[telemetry.WaitLock] += ms/pct - ms
	}
	return b
}

func (b *sigBuilder) waitTrend(k resource.Kind, slope float64) *sigBuilder {
	b.s.Resources[k].WaitTrend = stats.Trend{Slope: slope, Significant: true}
	return b
}

func (b *sigBuilder) utilTrend(k resource.Kind, slope float64) *sigBuilder {
	b.s.Resources[k].UtilTrend = stats.Trend{Slope: slope, Significant: true}
	return b
}

func (b *sigBuilder) corr(k resource.Kind, rho float64) *sigBuilder {
	b.s.Resources[k].WaitLatencyCorr = rho
	return b
}

func (b *sigBuilder) latencyTrend(slope float64) *sigBuilder {
	b.s.Latency.Trend = stats.Trend{Slope: slope, Significant: true}
	return b
}

func (b *sigBuilder) build() telemetry.Signals { return b.s }

func TestLevelAndSensitivityStrings(t *testing.T) {
	if Low.String() != "LOW" || Medium.String() != "MEDIUM" || High.String() != "HIGH" {
		t.Error("level names wrong")
	}
	if Level(9).String() != "level(9)" {
		t.Error("unknown level name")
	}
	if SensitivityHigh.String() != "HIGH" || SensitivityMedium.String() != "MEDIUM" || SensitivityLow.String() != "LOW" {
		t.Error("sensitivity names wrong")
	}
	if Sensitivity(9).String() != "sensitivity(9)" {
		t.Error("unknown sensitivity name")
	}
}

func TestThresholdsValidate(t *testing.T) {
	good := DefaultThresholds()
	if err := good.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	cases := []func(*Thresholds){
		func(th *Thresholds) { th.UtilLow = 0.9 },
		func(th *Thresholds) { th.UtilHigh = 1.5 },
		func(th *Thresholds) { th.WaitHighMs[resource.CPU] = 1 },
		func(th *Thresholds) { th.WaitPctSignificant = 0 },
		func(th *Thresholds) { th.CorrSignificant = 2 },
		func(th *Thresholds) { th.ExtremeUtil = 0.5 },
		func(th *Thresholds) { th.ExtremeWaitFactor = 0.5 },
	}
	for i, mutate := range cases {
		th := DefaultThresholds()
		mutate(&th)
		if err := th.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
		if _, err := New(th, SensitivityMedium); err == nil {
			t.Errorf("case %d: New should reject invalid thresholds", i)
		}
	}
}

func TestRuleA_HighUtilHighWaitSignificant(t *testing.T) {
	e := mustEstimator(t, SensitivityMedium)
	sig := newSig().util(resource.CPU, 0.85).wait(resource.CPU, 200_000, 0.6).build()
	d := e.Estimate(sig)
	if d.Steps[resource.CPU] != 1 {
		t.Errorf("rule (a) should fire: steps=%v expl=%v", d.Steps, d.Explanations)
	}
	if !strings.Contains(strings.Join(d.Explanations, ";"), "utilization HIGH, waits HIGH") {
		t.Errorf("explanation missing: %v", d.Explanations)
	}
}

func TestRuleB_TrendCompensatesInsignificantPct(t *testing.T) {
	e := mustEstimator(t, SensitivityMedium)
	// Waits high in magnitude but a small share of total (e.g. lock-heavy
	// workload); a rising utilization trend confirms demand.
	with := newSig().util(resource.DiskIO, 0.8).wait(resource.DiskIO, 200_000, 0.1).
		utilTrend(resource.DiskIO, 0.05).build()
	if d := e.Estimate(with); d.Steps[resource.DiskIO] != 1 {
		t.Errorf("rule (b) should fire: %v", d.Steps)
	}
	// Without the trend, the same signals must NOT fire (weak evidence).
	without := newSig().util(resource.DiskIO, 0.8).wait(resource.DiskIO, 200_000, 0.1).build()
	if d := e.Estimate(without); d.Steps[resource.DiskIO] != 0 {
		t.Errorf("rule (b) without trend should not fire: %v", d.Steps)
	}
}

func TestRuleC_MediumWaitsNeedTrend(t *testing.T) {
	e := mustEstimator(t, SensitivityMedium)
	with := newSig().util(resource.CPU, 0.8).wait(resource.CPU, 50_000, 0.5).
		waitTrend(resource.CPU, 1000).build()
	if d := e.Estimate(with); d.Steps[resource.CPU] != 1 {
		t.Errorf("rule (c) should fire: %v", d.Steps)
	}
	without := newSig().util(resource.CPU, 0.8).wait(resource.CPU, 50_000, 0.5).build()
	if d := e.Estimate(without); d.Steps[resource.CPU] != 0 {
		t.Errorf("rule (c) without trend should not fire: %v", d.Steps)
	}
}

func TestRuleD_CorrelationBottleneck(t *testing.T) {
	e := mustEstimator(t, SensitivityMedium)
	// Moderate utilization, medium waits, but waits track degrading
	// latency with a dominant wait share: the bottleneck rule.
	with := newSig().util(resource.DiskIO, 0.5).wait(resource.DiskIO, 50_000, 0.7).
		corr(resource.DiskIO, 0.85).latencyTrend(2).build()
	if d := e.Estimate(with); d.Steps[resource.DiskIO] != 1 {
		t.Errorf("rule (d) should fire: %v / %v", d.Steps, d.Explanations)
	}
	// Same but latency not degrading: no action.
	stable := newSig().util(resource.DiskIO, 0.5).wait(resource.DiskIO, 50_000, 0.7).
		corr(resource.DiskIO, 0.85).build()
	if d := e.Estimate(stable); d.Steps[resource.DiskIO] != 0 {
		t.Errorf("rule (d) without degrading latency should not fire: %v", d.Steps)
	}
}

func TestRuleE_ExtremeTwoSteps(t *testing.T) {
	e := mustEstimator(t, SensitivityMedium)
	sig := newSig().util(resource.CPU, 0.99).wait(resource.CPU, 1_000_000, 0.8).build()
	d := e.Estimate(sig)
	if d.Steps[resource.CPU] != 2 {
		t.Errorf("extreme rule should estimate 2 steps: %v", d.Steps)
	}
	if d.MaxStep() != 2 || !d.AnyHigh() {
		t.Errorf("MaxStep/AnyHigh wrong: %+v", d)
	}
}

func TestHighUtilizationAloneDoesNotScaleUp(t *testing.T) {
	// The paper's headline: utilization alone is not demand.
	e := mustEstimator(t, SensitivityMedium)
	sig := newSig().util(resource.CPU, 0.9).wait(resource.CPU, 1_000, 0.05).build()
	d := e.Estimate(sig)
	if d.Steps[resource.CPU] != 0 {
		t.Errorf("high utilization with low waits must not scale up: %v / %v", d.Steps, d.Explanations)
	}
}

func TestHighWaitsAloneDoNotScaleUp(t *testing.T) {
	// Large waits with low utilization and no confirming signal: noise.
	e := mustEstimator(t, SensitivityMedium)
	sig := newSig().util(resource.CPU, 0.1).wait(resource.CPU, 200_000, 0.1).build()
	d := e.Estimate(sig)
	if d.Steps[resource.CPU] > 0 {
		t.Errorf("waits alone must not scale up: %v", d.Steps)
	}
}

func TestLowDemandScaleDown(t *testing.T) {
	e := mustEstimator(t, SensitivityMedium)
	sig := newSig().
		util(resource.CPU, 0.05).wait(resource.CPU, 100, 0.02).
		util(resource.DiskIO, 0.08).wait(resource.DiskIO, 50, 0.02).
		util(resource.LogIO, 0.02).wait(resource.LogIO, 10, 0.01).
		util(resource.Memory, 0.9).wait(resource.Memory, 0, 0).
		build()
	d := e.Estimate(sig)
	for _, k := range []resource.Kind{resource.CPU, resource.DiskIO, resource.LogIO} {
		if d.Steps[k] != -1 {
			t.Errorf("%v should scale down: %v", k, d.Steps)
		}
	}
	// Memory never scales down via rules.
	if d.Steps[resource.Memory] != 0 {
		t.Errorf("memory must not scale down without ballooning: %v", d.Steps)
	}
}

func TestScaleDownBlockedByRisingTrend(t *testing.T) {
	e := mustEstimator(t, SensitivityMedium)
	sig := newSig().
		util(resource.CPU, 0.05).wait(resource.CPU, 100, 0.02).
		utilTrend(resource.CPU, 0.02).
		build()
	d := e.Estimate(sig)
	if d.Steps[resource.CPU] == -1 {
		t.Error("rising trend must block scale-down (early burst signal)")
	}
}

func TestMemoryHighDemand(t *testing.T) {
	e := mustEstimator(t, SensitivityMedium)
	sig := newSig().util(resource.Memory, 0.99).wait(resource.Memory, 100_000, 0.5).build()
	d := e.Estimate(sig)
	if d.Steps[resource.Memory] != 1 {
		t.Errorf("memory waits HIGH+significant should scale up: %v / %v", d.Steps, d.Explanations)
	}
	extreme := newSig().util(resource.Memory, 0.99).wait(resource.Memory, 500_000, 0.8).build()
	if d := e.Estimate(extreme); d.Steps[resource.Memory] != 2 {
		t.Errorf("extreme memory pressure should scale 2: %v", d.Steps)
	}
}

func TestSensitivityShiftsThresholds(t *testing.T) {
	// Signals just below the MEDIUM-sensitivity HIGH-wait threshold: HIGH
	// sensitivity scales up, LOW does not.
	sig := newSig().util(resource.CPU, 0.8).wait(resource.CPU, 100_000, 0.5).build()
	if d := mustEstimator(t, SensitivityMedium).Estimate(sig); d.Steps[resource.CPU] != 0 {
		t.Errorf("medium sensitivity should not fire at 100k waits: %v", d.Steps)
	}
	if d := mustEstimator(t, SensitivityHigh).Estimate(sig); d.Steps[resource.CPU] != 1 {
		t.Errorf("high sensitivity should fire at 100k waits: %v", d.Steps)
	}
	// Scale-down: utilization just above the LOW threshold; LOW sensitivity
	// scales down anyway, HIGH does not.
	idle := newSig().util(resource.CPU, 0.33).wait(resource.CPU, 100, 0.02).build()
	if d := mustEstimator(t, SensitivityLow).Estimate(idle); d.Steps[resource.CPU] != -1 {
		t.Errorf("low sensitivity should scale down at 33%% util: %v", d.Steps)
	}
	if d := mustEstimator(t, SensitivityHigh).Estimate(idle); d.Steps[resource.CPU] != -1 {
		// 0.33 > 0.30·0.75: high sensitivity holds.
		if d.Steps[resource.CPU] != 0 {
			t.Errorf("unexpected: %v", d.Steps)
		}
	}
}

func TestExplanationsPresent(t *testing.T) {
	e := mustEstimator(t, SensitivityMedium)
	sig := newSig().util(resource.CPU, 0.85).wait(resource.CPU, 200_000, 0.6).
		util(resource.DiskIO, 0.05).wait(resource.DiskIO, 10, 0.01).build()
	d := e.Estimate(sig)
	if len(d.Explanations) < 2 {
		t.Fatalf("want explanations for both the scale-up and scale-down: %v", d.Explanations)
	}
	joined := strings.Join(d.Explanations, ";")
	if !strings.Contains(joined, "scale-up cpu") || !strings.Contains(joined, "scale-down diskio") {
		t.Errorf("explanations incomplete: %v", d.Explanations)
	}
}

func TestStatesExposed(t *testing.T) {
	e := mustEstimator(t, SensitivityMedium)
	sig := newSig().util(resource.CPU, 0.85).wait(resource.CPU, 200_000, 0.6).build()
	d := e.Estimate(sig)
	st := d.States[resource.CPU]
	if st.Utilization != High || st.Wait != High || !st.PctSignificant {
		t.Errorf("states not categorized: %+v", st)
	}
	if st.Kind != resource.CPU {
		t.Errorf("state kind = %v", st.Kind)
	}
}
