// Package estimator implements the paper's resource demand estimator
// (Section 4): a manually-constructed hierarchy of rules that combines
// multiple weakly-predictive signals — categorized utilization, wait
// magnitudes, percentage waits, robust trends and wait–latency correlation —
// into per-resource demand estimates expressed as container-step changes of
// −1, 0, +1 or +2 (90% of production resizes are one step; 98% at most
// two). Each estimate carries a human-readable explanation of the rule path
// taken. Low memory demand, which utilization and waits cannot reveal, is
// detected by a ballooning controller (Section 4.3).
package estimator

import (
	"fmt"

	"daasscale/internal/resource"
)

// Level categorizes a continuous signal into the discrete domain the rules
// operate on (Section 4: "once thresholds are applied ... it transforms the
// signals from a continuous value domain to a categorical value domain").
type Level int

// Signal levels.
const (
	Low Level = iota
	Medium
	High
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Low:
		return "LOW"
	case Medium:
		return "MEDIUM"
	case High:
		return "HIGH"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Sensitivity is the coarse-grained performance-sensitivity knob
// (Section 2.3): how latency-sensitive the tenant's application is. HIGH
// scales up more eagerly and down more reluctantly; LOW the reverse.
type Sensitivity int

// Sensitivity levels; the default is SensitivityMedium.
const (
	SensitivityLow Sensitivity = iota
	SensitivityMedium
	SensitivityHigh
)

// String names the sensitivity.
func (s Sensitivity) String() string {
	switch s {
	case SensitivityLow:
		return "LOW"
	case SensitivityMedium:
		return "MEDIUM"
	case SensitivityHigh:
		return "HIGH"
	default:
		return fmt.Sprintf("sensitivity(%d)", int(s))
	}
}

// upFactor scales the scale-up thresholds: < 1 means weaker evidence
// suffices to add resources.
func (s Sensitivity) upFactor() float64 {
	switch s {
	case SensitivityHigh:
		return 0.75
	case SensitivityLow:
		return 1.5
	default:
		return 1
	}
}

// downFactor scales the scale-down thresholds: > 1 means weaker evidence
// suffices to remove resources.
func (s Sensitivity) downFactor() float64 {
	switch s {
	case SensitivityHigh:
		return 0.75
	case SensitivityLow:
		return 1.25
	default:
		return 1
	}
}

// Thresholds categorize the continuous signals. The wait thresholds are the
// values the paper derives from service-wide production telemetry
// (Section 4.1, Figure 6); package fleet recomputes them from the synthetic
// fleet, and these defaults match that calibration's output for the default
// catalog.
type Thresholds struct {
	// UtilLow and UtilHigh split utilization (fraction of allocation) into
	// LOW (< UtilLow), MEDIUM, HIGH (≥ UtilHigh).
	UtilLow, UtilHigh float64
	// WaitLowMs and WaitHighMs split the per-interval wait magnitude for
	// each physical resource into LOW/MEDIUM/HIGH. Derived from the
	// separation between the wait distributions at low and high
	// utilization.
	WaitLowMs, WaitHighMs resource.Vector
	// WaitPctSignificant is the share of total waits above which a
	// resource's percentage waits are SIGNIFICANT.
	WaitPctSignificant float64
	// CorrSignificant is the |Spearman ρ| above which wait–latency
	// correlation marks a resource as the likely bottleneck.
	CorrSignificant float64
	// ExtremeUtil and ExtremeWaitFactor define the two-step scale-up rule:
	// utilization ≥ ExtremeUtil with waits ≥ ExtremeWaitFactor·WaitHighMs
	// estimates demand two container steps up.
	ExtremeUtil       float64
	ExtremeWaitFactor float64
}

// DefaultThresholds returns thresholds calibrated against the default
// container catalog and engine model (regenerable via
// fleet.StreamCalibration, e.g. `daas-fleet -save-thresholds`).
func DefaultThresholds() Thresholds {
	return Thresholds{
		UtilLow:  0.30,
		UtilHigh: 0.70,
		WaitLowMs: resource.Vector{
			resource.CPU:    8_000,
			resource.Memory: 5_000,
			resource.DiskIO: 8_000,
			resource.LogIO:  8_000,
		},
		WaitHighMs: resource.Vector{
			resource.CPU:    120_000,
			resource.Memory: 60_000,
			resource.DiskIO: 120_000,
			resource.LogIO:  120_000,
		},
		WaitPctSignificant: 0.30,
		CorrSignificant:    0.60,
		ExtremeUtil:        0.95,
		ExtremeWaitFactor:  3,
	}
}

// Validate checks internal consistency.
func (t Thresholds) Validate() error {
	if !(0 <= t.UtilLow && t.UtilLow < t.UtilHigh && t.UtilHigh <= 1) {
		return fmt.Errorf("estimator: utilization thresholds [%v, %v] invalid", t.UtilLow, t.UtilHigh)
	}
	for _, k := range resource.Kinds {
		if t.WaitLowMs[k] < 0 || t.WaitHighMs[k] <= t.WaitLowMs[k] {
			return fmt.Errorf("estimator: wait thresholds for %v invalid: low=%v high=%v", k, t.WaitLowMs[k], t.WaitHighMs[k])
		}
	}
	if t.WaitPctSignificant <= 0 || t.WaitPctSignificant >= 1 {
		return fmt.Errorf("estimator: wait-pct threshold %v invalid", t.WaitPctSignificant)
	}
	if t.CorrSignificant <= 0 || t.CorrSignificant > 1 {
		return fmt.Errorf("estimator: correlation threshold %v invalid", t.CorrSignificant)
	}
	if t.ExtremeUtil < t.UtilHigh || t.ExtremeUtil > 1 {
		return fmt.Errorf("estimator: extreme utilization %v invalid", t.ExtremeUtil)
	}
	if t.ExtremeWaitFactor < 1 {
		return fmt.Errorf("estimator: extreme wait factor %v invalid", t.ExtremeWaitFactor)
	}
	return nil
}

// utilLevel categorizes a utilization fraction.
func (t Thresholds) utilLevel(u float64) Level {
	switch {
	case u < t.UtilLow:
		return Low
	case u >= t.UtilHigh:
		return High
	default:
		return Medium
	}
}

// waitLevel categorizes a wait magnitude for resource k, with the
// sensitivity-adjusted factor applied to the HIGH threshold.
func (t Thresholds) waitLevel(k resource.Kind, waitMs, factor float64) Level {
	switch {
	case waitMs < t.WaitLowMs[k]:
		return Low
	case waitMs >= t.WaitHighMs[k]*factor:
		return High
	default:
		return Medium
	}
}
