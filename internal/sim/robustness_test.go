package sim

import (
	"context"
	"testing"

	"daasscale/internal/core"
	"daasscale/internal/engine"
	"daasscale/internal/policy"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// TestAutoStableUnderTelemetryNoise is the failure-injection test behind
// the paper's robustness claim (Section 3): with frequent outlier spikes in
// the telemetry (transient system activities), the robust signals keep the
// auto-scaler from thrashing on a steady workload.
func TestAutoStableUnderTelemetryNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	run := func(noiseProb float64) Result {
		scaler, err := core.New(core.Config{
			Catalog: cat,
			Initial: cat.AtStep(5),
			Goal:    core.LatencyGoal{Kind: core.GoalP95, Ms: 80},
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner().Run(context.Background(), Spec{
			Workload:   workload.DS2(),
			Trace:      trace.Trace1(300, 5),
			Policy:     policy.NewAuto(scaler),
			Seed:       17,
			EngineOpts: engine.Options{WarmStart: true, NoiseProb: noiseProb, NoiseScale: 100},
			GoalMs:     80,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	quiet := run(-1)   // noise disabled
	noisy := run(0.15) // a spike roughly every 7 ticks
	// Under heavy spikes the controller may move a little more, but it must
	// not thrash: resize activity stays within a small fraction of
	// intervals and within a small multiple of the quiet run.
	if noisy.ChangeFraction > 0.10 {
		t.Errorf("noisy change fraction = %v, controller is thrashing", noisy.ChangeFraction)
	}
	if noisy.Changes > quiet.Changes*3+6 {
		t.Errorf("noise tripled resize activity: %d vs %d", noisy.Changes, quiet.Changes)
	}
	// And the latency outcome stays comparable.
	if noisy.P95Ms > quiet.P95Ms*2 {
		t.Errorf("noise destroyed latency: %v vs %v", noisy.P95Ms, quiet.P95Ms)
	}
}

// TestAutoRecoversFromMidRunLoadShift: a regime change (steady → double
// load) must converge to a new stable container without oscillation.
func TestAutoRecoversFromMidRunLoadShift(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	tr := &trace.Trace{Name: "shift", RPS: make([]float64, 240)}
	for i := range tr.RPS {
		if i < 120 {
			tr.RPS[i] = 150
		} else {
			tr.RPS[i] = 450
		}
	}
	scaler, err := core.New(core.Config{
		Catalog: cat,
		Initial: cat.Smallest(),
		Goal:    core.LatencyGoal{Kind: core.GoalP95, Ms: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner().Run(context.Background(), Spec{
		Workload:   workload.DS2(),
		Trace:      tr,
		Policy:     policy.NewAuto(scaler),
		Seed:       23,
		EngineOpts: engine.Options{WarmStart: true},
		GoalMs:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the shift settles, the container must be strictly larger than
	// in the first regime, and stable (no changes in the last 60 intervals).
	firstRegime := r.Series[100].Step
	secondRegime := r.Series[220].Step
	if secondRegime <= firstRegime {
		t.Errorf("container did not grow with the load: step %d → %d", firstRegime, secondRegime)
	}
	for i := 181; i < 240; i++ {
		if r.Series[i].Step != r.Series[180].Step {
			t.Errorf("container still oscillating at interval %d (%d vs %d)", i, r.Series[i].Step, r.Series[180].Step)
			break
		}
	}
}
