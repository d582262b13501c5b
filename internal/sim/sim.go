// Package sim runs end-to-end auto-scaling experiments: a workload driven
// by a load trace executes inside the simulated engine while a policy picks
// the container for every billing interval, exactly as in the paper's
// evaluation (Section 7.1). The runner collects the two headline metrics —
// monetary cost per billing interval and the 95th-percentile latency of the
// whole run — plus the per-interval series behind the drill-down figures.
package sim

import (
	"context"
	"fmt"
	"math"

	"daasscale/internal/actuate"
	"daasscale/internal/engine"
	"daasscale/internal/faults"
	"daasscale/internal/loop"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// ServerCPUms is the CPU capacity (core-ms/s) of the database server
// hosting the containers — the largest container fills the whole server.
// Figure 13 expresses container sizes as a percentage of this capacity.
const ServerCPUms = 32000.0

// Spec describes one experiment run.
type Spec struct {
	// Workload is the benchmark to execute. Required.
	Workload *workload.Workload
	// Trace drives the offered load (one entry per billing interval).
	// Required.
	Trace *trace.Trace
	// Policy chooses containers. Required; its Container() is the initial
	// container.
	Policy policy.Policy
	// Seed makes the run reproducible.
	Seed int64
	// EngineOpts tunes the engine model (zero value → defaults).
	EngineOpts engine.Options
	// Jitter is the load generator's arrival jitter (0 → 0.1).
	Jitter float64
	// GoalMs, when > 0, is recorded for the performance-factor series (it
	// does not influence the run; goals live inside the policies).
	GoalMs float64
	// Faults is the deterministic fault plan applied to the telemetry
	// channel between the engine and the policy (zero value = clean run).
	// Faults never touch the engine: the load, the queues and the billing
	// stay truthful, only what the policy observes is perturbed — on an
	// interval the plan drops, the policy simply makes no decision and the
	// previous container is kept.
	Faults faults.Plan
	// Actuation is the configuration of the decision→engine channel (zero
	// value = the historical synchronous, infallible path). When enabled,
	// every resize the policy decides becomes an asynchronous operation
	// with actuation latency, injected throttles/failures, retry with
	// backoff, deadlines, and desired-state reconciliation — see package
	// actuate. Like Faults, the chaos is seed-deterministic: parallel runs
	// stay bit-identical to serial ones.
	Actuation actuate.Config
	// Audit, when true, collects one loop.DecisionRecord per interval into
	// Result.Audit — the full decision-audit trail behind `-explain`.
	Audit bool
	// Recorder, when set, receives the audit stream directly (instead of,
	// or in addition to, the Audit collection). Records arrive in interval
	// order from the simulation goroutine.
	Recorder loop.Recorder
}

// IntervalPoint is one billing interval of the drill-down series.
type IntervalPoint struct {
	Interval  int
	Container string
	Step      int
	Cost      float64
	// ContainerCPUFrac is the container's CPU allocation as a fraction of
	// the server (Figure 13's "Container Max CPU").
	ContainerCPUFrac float64
	// CPUUtilFrac is CPU used as a fraction of the server.
	CPUUtilFrac float64
	OfferedRPS  float64
	// Utilization is the per-resource utilization fraction of the interval.
	Utilization resource.Vector
	// UtilizationPeak is the maximum per-tick utilization in the interval.
	UtilizationPeak resource.Vector
	AvgMs           float64
	P95Ms           float64
	// PerformanceFactor is (goal − p95)/goal·100: negative values mean the
	// goal was missed (Figure 13's secondary axis). NaN when no goal.
	PerformanceFactor float64
	// WaitPct is the share of waits per class (Figure 13(c)).
	WaitPct [telemetry.NumWaitClasses]float64
	// MemoryUsedMB and PhysicalReads feed the ballooning figure.
	MemoryUsedMB  float64
	PhysicalReads float64
	// BalloonTargetMB is the active memory target (0 = none).
	BalloonTargetMB float64
	// Explanations narrates the interval's decision — the estimator's
	// rule-firing explanations (§4), empty for silent policies and for
	// intervals the fault injector withheld.
	Explanations []string
}

// Result aggregates one run.
type Result struct {
	Policy   string
	Workload string
	Trace    string
	GoalMs   float64

	Intervals          int
	TotalCost          float64
	AvgCostPerInterval float64
	// P95Ms and AvgMs are computed over every request of the whole run.
	P95Ms float64
	AvgMs float64
	// Changes counts container resizes; ChangeFraction is Changes divided
	// by the number of intervals.
	Changes        int
	ChangeFraction float64

	// FaultStats reports what the fault injector did to the telemetry
	// channel (all-zero for a clean run).
	FaultStats faults.Stats
	// ActuationStats reports what the actuation channel did to the
	// policy's resize decisions (all-zero on the synchronous path).
	ActuationStats actuate.Stats

	Series []IntervalPoint

	// Audit is the per-interval decision-audit trail (only collected when
	// the spec asked for it).
	Audit []loop.DecisionRecord
}

// MeetsGoal reports whether the run-level p95 met the given goal.
func (r Result) MeetsGoal(goalMs float64) bool { return r.P95Ms <= goalMs }

// runSpecValidated validates and runs — for internal callers that bypass a
// Runner's default resolution.
func runSpecValidated(ctx context.Context, spec Spec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	return runSpec(ctx, spec)
}

// specRecorder builds the audit recorder a spec asked for: the spec's own
// Recorder, a fresh Collector for Audit, or both (a fan-out).
func specRecorder(audit bool, rec loop.Recorder) (loop.Recorder, *loop.Collector) {
	if !audit {
		return rec, nil
	}
	col := &loop.Collector{}
	if rec == nil {
		return col, col
	}
	return recorderPair{rec, col}, col
}

// recorderPair fans one audit stream out to two recorders.
type recorderPair struct{ a, b loop.Recorder }

func (p recorderPair) Record(r loop.DecisionRecord) { p.a.Record(r); p.b.Record(r) }

// runSpec is the single-run simulation behind Runner.Run and every
// composite runner: one loop.TenantLoop driven by the trace, with the
// policy adapted through loop.PolicyDecider and resizes landing directly
// on the engine. The spec must already be validated; the context is
// probed once per billing interval.
func runSpec(ctx context.Context, spec Spec) (Result, error) {
	if spec.Jitter == 0 {
		spec.Jitter = 0.1
	}
	eng, err := engine.New(spec.Workload, spec.Policy.Container(), spec.Seed, spec.EngineOpts)
	if err != nil {
		return Result{}, err
	}
	rec, col := specRecorder(spec.Audit, spec.Recorder)
	lp := loop.New(loop.Config[resource.Container]{
		ID:               spec.Policy.Name(),
		Engine:           eng,
		Seed:             spec.Seed,
		Jitter:           spec.Jitter,
		Decider:          loop.NewPolicyDecider(spec.Policy, eng),
		Applier:          loop.EngineApplier{Engine: eng},
		Faults:           spec.Faults,
		Actuation:        spec.Actuation,
		Recorder:         rec,
		Describe:         loop.DescribeContainer,
		SetMemoryTarget:  true,
		CollectLatencies: true,
		SampleCapacityHint: spec.Trace.Len() * eng.TicksPerInterval() *
			engine.MaxLatencySamplesPerTick,
	})

	res := Result{
		Policy:   spec.Policy.Name(),
		Workload: spec.Workload.Name,
		Trace:    spec.Trace.Name,
		GoalMs:   spec.GoalMs,
	}
	for m := 0; m < spec.Trace.Len(); m++ {
		if err := checkCtx(ctx); err != nil {
			return Result{}, fmt.Errorf("sim: %s×%s interval %d: %w", res.Workload, res.Trace, m, err)
		}
		lp.RunTicks(spec.Trace.At(m))
		// The container the interval ran in, captured before the decision
		// is applied (Figure 13's "Container Max CPU").
		cpuFrac := eng.Container().Alloc[resource.CPU] / ServerCPUms
		if err := lp.DecideApply(m); err != nil {
			return Result{}, fmt.Errorf("sim: %s×%s interval %d: %w", res.Workload, res.Trace, m, err)
		}
		snap, dec := lp.Snapshot(), lp.LastDecision()

		pt := IntervalPoint{
			Interval:         snap.Interval,
			Container:        snap.Container,
			Step:             snap.Step,
			Cost:             snap.Cost,
			ContainerCPUFrac: cpuFrac,
			CPUUtilFrac:      snap.Utilization[resource.CPU] * cpuFrac,
			OfferedRPS:       snap.OfferedRPS,
			Utilization:      snap.Utilization,
			UtilizationPeak:  snap.UtilizationPeak,
			AvgMs:            snap.AvgLatencyMs,
			P95Ms:            snap.P95LatencyMs,
			MemoryUsedMB:     snap.MemoryUsedMB,
			PhysicalReads:    snap.PhysicalReads,
			BalloonTargetMB:  dec.BalloonTargetMB,
			Explanations:     dec.Explanations,
		}
		if spec.GoalMs > 0 {
			pt.PerformanceFactor = (spec.GoalMs - snap.P95LatencyMs) / spec.GoalMs * 100
		} else {
			pt.PerformanceFactor = math.NaN()
		}
		for _, wc := range telemetry.WaitClasses {
			pt.WaitPct[wc] = snap.WaitPct(wc)
		}
		res.Series = append(res.Series, pt)
	}
	tot := lp.Finalize(spec.Trace.Len())
	res.Intervals = tot.Intervals
	res.TotalCost = tot.TotalCost
	res.AvgCostPerInterval = tot.AvgCostPerInterval
	res.P95Ms = tot.P95Ms
	res.AvgMs = tot.AvgMs
	res.Changes = tot.Changes
	res.ChangeFraction = tot.ChangeFraction
	res.FaultStats = tot.Faults
	res.ActuationStats = tot.Actuation
	if col != nil {
		res.Audit = col.Records
	}
	return res, nil
}
