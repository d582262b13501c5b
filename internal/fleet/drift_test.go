package fleet

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"daasscale/internal/estimator"
	"daasscale/internal/resource"
)

func TestThresholdDriftStable(t *testing.T) {
	th := estimator.DefaultThresholds()
	drifts := ThresholdDrift(th, th)
	if len(drifts) != resource.NumKinds {
		t.Fatalf("drifts = %d", len(drifts))
	}
	for _, d := range drifts {
		if d.RelChange != 0 || d.Significant(0.01) {
			t.Errorf("%v: identical calibrations should have zero drift: %+v", d.Kind, d)
		}
	}
}

func TestThresholdDriftDetectsChange(t *testing.T) {
	active := estimator.DefaultThresholds()
	fresh := active
	fresh.WaitHighMs[resource.CPU] = active.WaitHighMs[resource.CPU] * 2
	drifts := ThresholdDrift(active, fresh)
	var cpu Drift
	for _, d := range drifts {
		if d.Kind == resource.CPU {
			cpu = d
		}
	}
	if math.Abs(cpu.RelChange-1.0) > 1e-9 {
		t.Errorf("cpu drift = %v, want 1.0", cpu.RelChange)
	}
	if !cpu.Significant(0.25) || cpu.Significant(1.5) {
		t.Errorf("significance thresholds wrong: %+v", cpu)
	}
	// Zero→nonzero drift is infinite (always significant).
	zero := active
	zero.WaitLowMs[resource.DiskIO] = 0
	inf := ThresholdDrift(zero, active)
	for _, d := range inf {
		if d.Kind == resource.DiskIO && !d.Significant(1e9) {
			t.Error("zero→nonzero drift should always alert")
		}
	}
}

func TestWriteDriftReport(t *testing.T) {
	active := estimator.DefaultThresholds()
	fresh := active
	fresh.WaitHighMs[resource.CPU] *= 3
	var buf bytes.Buffer
	WriteDriftReport(&buf, ThresholdDrift(active, fresh), 0.25)
	out := buf.String()
	if !strings.Contains(out, "ALERT") {
		t.Errorf("report missing alert:\n%s", out)
	}
	if strings.Count(out, "ALERT") != 1 {
		t.Errorf("exactly one resource should alert:\n%s", out)
	}
}

func TestCalibrationPersistRoundTrip(t *testing.T) {
	th := streamCalibration(t, 80, 3, 3).Thresholds
	var buf bytes.Buffer
	if err := th.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := estimator.ReadThresholdsJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != th {
		t.Errorf("round trip mismatch:\n%+v\n%+v", got, th)
	}
}

func TestReadThresholdsJSONErrors(t *testing.T) {
	if _, err := estimator.ReadThresholdsJSON(strings.NewReader("{")); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := estimator.ReadThresholdsJSON(strings.NewReader(`{"util_low":0.3}`)); err == nil {
		t.Error("missing wait maps should fail")
	}
	// Valid JSON, invalid thresholds.
	bad := `{"util_low":0.9,"util_high":0.7,
		"wait_low_ms":{"cpu":1,"memory":1,"diskio":1,"logio":1},
		"wait_high_ms":{"cpu":2,"memory":2,"diskio":2,"logio":2},
		"wait_pct_significant":0.3,"corr_significant":0.6,
		"extreme_util":0.95,"extreme_wait_factor":3}`
	if _, err := estimator.ReadThresholdsJSON(strings.NewReader(bad)); err == nil {
		t.Error("invalid thresholds should fail validation")
	}
}
