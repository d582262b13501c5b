package sim

import (
	"daasscale/internal/actuate"
	"daasscale/internal/budget"
	"daasscale/internal/engine"
	"daasscale/internal/estimator"
	"daasscale/internal/faults"
	"daasscale/internal/resource"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// ComparisonSpec describes one of the paper's end-to-end experiments: a
// workload × trace pair evaluated under all six policies (Max, Peak, Avg,
// Trace, Util, Auto) with a latency goal expressed as a multiple of the
// Max-container p95 (Section 7.2: 1.25× or 5×).
type ComparisonSpec struct {
	// Catalog of containers (nil → the default lock-step catalog).
	Catalog *resource.Catalog
	// Workload and Trace select the experiment. Required.
	Workload *workload.Workload
	Trace    *trace.Trace
	// GoalFactor sets the latency goal to GoalFactor × (Max run p95).
	// Required (> 1).
	GoalFactor float64
	// Seed makes the whole comparison reproducible.
	Seed int64
	// EngineOpts tunes the substrate (zero → defaults).
	EngineOpts engine.Options
	// Sensitivity for Auto (default MEDIUM).
	Sensitivity estimator.Sensitivity
	// Thresholds for Auto's demand estimator (zero value → defaults; pass
	// fleet.StreamCalibration's Thresholds to use fleet-calibrated ones).
	Thresholds estimator.Thresholds
	// AutoBudget optionally constrains Auto (nil → unlimited, the paper's
	// default for these experiments).
	AutoBudget *budget.Manager
	// DisableBallooning turns Auto's memory probe off.
	DisableBallooning bool
	// Faults is the deterministic fault plan applied to every policy's
	// telemetry channel (zero value = clean). The offline Max run that
	// derives the latency goal always stays clean, so clean and chaos
	// comparisons share the same goal.
	Faults faults.Plan
	// Actuation configures the decision→engine channel of every policy
	// run (zero value = synchronous, infallible). Like Faults, the
	// offline Max run that derives the latency goal stays synchronous, so
	// actuated and clean comparisons share the same goal.
	Actuation actuate.Config
	// Audit, when true, collects each policy run's loop.DecisionRecords
	// into its Result.Audit — the stream behind `daas-sim -explain`. The
	// offline Max derivation is not audited.
	Audit bool
}

// Comparison is the outcome of one experiment: the goal that was derived
// and one Result per policy.
type Comparison struct {
	GoalMs  float64
	Results []Result
}

// ByPolicy returns the result for the named policy.
func (c Comparison) ByPolicy(name string) (Result, bool) {
	for _, r := range c.Results {
		if r.Policy == name {
			return r, true
		}
	}
	return Result{}, false
}

// MustByPolicy is ByPolicy that panics on a missing policy (for benches).
func (c Comparison) MustByPolicy(name string) Result {
	r, ok := c.ByPolicy(name)
	if !ok {
		panic("sim: no result for policy " + name)
	}
	return r
}
