package sim

import (
	"context"
	"testing"

	"daasscale/internal/fleet"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// TestCalibratedThresholdsEndToEnd closes the Section 4.1 loop: derive the
// estimator thresholds from the synthetic fleet's wait distributions (as a
// DaaS operator would from production telemetry) and run the end-to-end
// experiment with them — Auto must still meet the goal and undercut Util.
func TestCalibratedThresholdsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	ctx := context.Background()
	spec, err := fleet.NewCalibrationSpec(150, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := fleet.StreamCalibration(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	th := cal.Thresholds
	if err := th.Validate(); err != nil {
		t.Fatal(err)
	}
	comp, err := NewRunner().RunComparison(ctx, ComparisonSpec{
		Workload:   workload.CPUIO(workload.DefaultCPUIOConfig()),
		Trace:      trace.Trace2(900, 2),
		GoalFactor: 1.25,
		Seed:       42,
		Thresholds: th,
	})
	if err != nil {
		t.Fatal(err)
	}
	auto := comp.MustByPolicy("Auto")
	util := comp.MustByPolicy("Util")
	if auto.P95Ms > comp.GoalMs*1.05 {
		t.Errorf("calibrated Auto misses goal: %v > %v", auto.P95Ms, comp.GoalMs)
	}
	if util.AvgCostPerInterval <= auto.AvgCostPerInterval {
		t.Errorf("calibrated Auto (%v) should undercut Util (%v)",
			auto.AvgCostPerInterval, util.AvgCostPerInterval)
	}
}
