package sim

import (
	"context"
	"fmt"

	"daasscale/internal/actuate"
	"daasscale/internal/engine"
	"daasscale/internal/estimator"
	"daasscale/internal/exec"
	"daasscale/internal/faults"
	"daasscale/internal/loop"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

// BallooningPoint is one billing interval of the Figure 14 series.
type BallooningPoint struct {
	Interval      int
	MemoryUsedMB  float64
	AvgMs         float64
	P95Ms         float64
	PhysicalReads float64
	// BalloonTargetMB is the active probe target (0 when none).
	BalloonTargetMB float64
}

// BallooningArm is one arm of the Figure 14 experiment.
type BallooningArm struct {
	Name   string
	Series []BallooningPoint
	// Aborted reports whether the ballooning probe aborted (with-balloon
	// arm) or the naive shrink was reverted (without-balloon arm).
	Aborted bool
	// ShrunkAt and RevertedAt are the intervals at which memory was first
	// reduced and restored (−1 when the event never happened).
	ShrunkAt, RevertedAt int
	// Actuation reports the arm's memory-target actuation counters
	// (all-zero on the synchronous path).
	Actuation actuate.Stats
	// Audit is the arm's per-interval decision-audit trail (only
	// collected when the spec asked for it).
	Audit []loop.DecisionRecord
}

// BaselineAvgMs returns the average latency before the shrink began.
func (a BallooningArm) BaselineAvgMs() float64 {
	var sum float64
	n := 0
	for _, pt := range a.Series {
		if a.ShrunkAt >= 0 && pt.Interval >= a.ShrunkAt {
			break
		}
		if pt.AvgMs > 0 {
			sum += pt.AvgMs
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PeakAvgMs returns the worst per-interval average latency in the arm.
func (a BallooningArm) PeakAvgMs() float64 {
	var m float64
	for _, pt := range a.Series {
		if pt.AvgMs > m {
			m = pt.AvgMs
		}
	}
	return m
}

// MinMemoryMB returns the lowest memory-in-use the arm reached.
func (a BallooningArm) MinMemoryMB() float64 {
	if len(a.Series) == 0 {
		return 0
	}
	m := a.Series[0].MemoryUsedMB
	for _, pt := range a.Series {
		if pt.MemoryUsedMB < m {
			m = pt.MemoryUsedMB
		}
	}
	return m
}

// BallooningResult holds both arms of Figure 14.
type BallooningResult struct {
	With    BallooningArm
	Without BallooningArm
	// WorkingSetMB is the workload's hot-set size (the paper's ≈3GB).
	WorkingSetMB float64
}

// BallooningSpec parameterizes the Figure 14 experiment.
type BallooningSpec struct {
	// Seed drives all randomness.
	Seed int64
	// Intervals is the run length (0 → 120).
	Intervals int
	// ShrinkAt is the interval at which low memory demand is (incorrectly)
	// concluded (0 → 30).
	ShrinkAt int
	// RPS is the steady offered load (0 → 120).
	RPS float64
	// Faults is the deterministic fault plan applied to each arm's
	// telemetry channel (zero value = clean). Both arms share one stream
	// seed, so they see identical fault timing.
	Faults faults.Plan
	// Actuation configures the memory-target channel between the control
	// logic and the engine (zero value = synchronous): target changes
	// take actuation latency to land, can be throttled or fail, and the
	// latest desired target is reconciled. Both arms share one stream
	// seed, so they see identical actuation chaos.
	Actuation actuate.Config
	// Audit, when true, collects each arm's loop.DecisionRecords into
	// BallooningArm.Audit. (The arms run concurrently, so there is no
	// shared-Recorder field here; each arm gets its own collector.)
	Audit bool
}

// runBallooning is the context-aware implementation behind
// Runner.RunBallooning. The spec must already be validated. The two arms
// are fully independent simulations (separate engines, generators and
// telemetry), so they fan out across the pool.
func runBallooning(ctx context.Context, spec BallooningSpec, pool *exec.Pool) (BallooningResult, error) {
	if spec.Intervals == 0 {
		spec.Intervals = 120
	}
	if spec.ShrinkAt == 0 {
		spec.ShrinkAt = 30
	}
	if spec.RPS == 0 {
		spec.RPS = 80
	}
	w := workload.CPUIO(workload.CPUIOConfig{
		CPUWeight: 1, IOWeight: 1, LogWeight: 0.5,
		WorkingSetMB: 3 * 1024, HotspotFraction: 0.99,
	})
	cat := resource.LockStepCatalog()
	cont, _ := cat.ByName("C2") // 4GB: the working set fits with little slack
	next := cat.AtStep(cont.Step - 1)
	nextMem := next.Alloc[resource.Memory] // 2GB: below the working set

	res := BallooningResult{WorkingSetMB: w.WorkingSetMB}

	runArm := func(ctx context.Context, withBalloon bool) (BallooningArm, error) {
		arm := BallooningArm{ShrunkAt: -1, RevertedAt: -1}
		if withBalloon {
			arm.Name = "Ballooning"
		} else {
			arm.Name = "No Ballooning"
		}
		eng, err := engine.New(w, cont, spec.Seed, engine.Options{WarmStart: true})
		if err != nil {
			return arm, err
		}
		var col *loop.Collector
		var rec loop.Recorder
		if spec.Audit {
			col = &loop.Collector{}
			rec = col
		}
		lp := loop.New(loop.Config[float64]{
			ID:     arm.Name,
			Engine: eng,
			Seed:   spec.Seed,
			Jitter: 0.08,
			Decider: &armDecider{
				arm:         &arm,
				tm:          telemetry.NewManager(5),
				balloon:     estimator.NewBalloon(estimator.DefaultBalloonConfig()),
				withBalloon: withBalloon,
				shrinkAt:    spec.ShrinkAt,
				nextMemMB:   nextMem,
				nextIO:      next.Alloc[resource.DiskIO],
			},
			Applier:   loop.MemoryApplier{Engine: eng},
			Faults:    spec.Faults,
			Actuation: spec.Actuation,
			Recorder:  rec,
			Describe:  describeMemoryMB,
			// The loop's Target already is the memory target; routing
			// Decision.BalloonTargetMB to the engine as well would zero
			// the just-applied target.
			SetMemoryTarget: false,
		})
		for i := 0; i < spec.Intervals; i++ {
			if err := checkCtx(ctx); err != nil {
				return arm, fmt.Errorf("interval %d: %w", i, err)
			}
			if err := lp.Step(i, spec.RPS); err != nil {
				return arm, fmt.Errorf("interval %d: %w", i, err)
			}
		}
		arm.Actuation = lp.Finalize(spec.Intervals).Actuation
		if col != nil {
			arm.Audit = col.Records
		}
		return arm, nil
	}

	arms, err := execMapPool(ctx, pool, 2, runArmTask(runArm))
	if err != nil {
		return res, err
	}
	res.Without, res.With = arms[0], arms[1]
	return res, nil
}

// runArmTask adapts runArm to the pool fan-out, naming the failing arm.
func runArmTask(runArm func(context.Context, bool) (BallooningArm, error)) func(context.Context, int) (BallooningArm, error) {
	return func(ctx context.Context, i int) (BallooningArm, error) {
		withBalloon := i == 1
		arm, err := runArm(ctx, withBalloon)
		if err != nil {
			name := "naive arm"
			if withBalloon {
				name = "probe arm"
			}
			return arm, fmt.Errorf("sim: ballooning (%s): %w", name, err)
		}
		return arm, nil
	}
}

// armDecider is the ballooning experiment's control logic behind the
// Decider contract: delivered snapshots feed the telemetry manager (the
// series keeps the truthful snapshot; only the manager's view — what the
// control logic reads — is perturbed by faults), and Decide appends the
// interval's Figure 14 point before running the arm's memory-target
// logic. Unlike the policy loops there is no withheld-interval hold: the
// arm logic runs every interval on whatever signals the manager has.
type armDecider struct {
	arm         *BallooningArm
	tm          *telemetry.Manager
	balloon     *estimator.Balloon
	withBalloon bool
	shrinkAt    int
	// nextMemMB and nextIO are the next-smaller container's memory and
	// disk bandwidth — the shrink target and the probe's abort threshold.
	nextMemMB float64
	nextIO    float64
	badStreak int
}

// Observe implements loop.Decider.
func (d *armDecider) Observe(s telemetry.Snapshot) { d.tm.Observe(s) }

// Decide implements loop.Decider. actual is the engine's memory target
// going into the interval (the point's BalloonTargetMB).
func (d *armDecider) Decide(info loop.StepInfo, truth telemetry.Snapshot, actual float64) loop.Decision[float64] {
	i := info.Interval
	arm := d.arm
	arm.Series = append(arm.Series, BallooningPoint{
		Interval:        i,
		MemoryUsedMB:    truth.MemoryUsedMB,
		AvgMs:           truth.AvgLatencyMs,
		P95Ms:           truth.P95LatencyMs,
		PhysicalReads:   truth.PhysicalReads,
		BalloonTargetMB: actual,
	})
	dec := loop.Decision[float64]{Target: actual}
	// set routes a memory-target decision into the loop: applied directly
	// on the synchronous path, a desired-state write on the actuated one.
	// Re-setting an unchanged target is idempotent on both.
	set := func(mb float64, why string) {
		dec.Target = mb
		dec.Changed, dec.Submit = true, true
		dec.Explanations = append(dec.Explanations, why)
	}
	if !d.withBalloon {
		// Naive arm: act on the incorrect low-memory estimate at
		// ShrinkAt; revert once unmet disk I/O demand shows up in the
		// telemetry (the paper: "Auto notices this increase in latency
		// due to unmet disk I/O demand and reverts").
		switch {
		case i == d.shrinkAt:
			set(d.nextMemMB, fmt.Sprintf("naive shrink: memory target %.0fMB on a low-demand estimate", d.nextMemMB))
			arm.ShrunkAt = i
		case arm.ShrunkAt >= 0 && arm.RevertedAt < 0:
			sig, ok := d.tm.Signals()
			if ok && sig.Current.WaitMs[telemetry.WaitMemory] > 20_000 {
				d.badStreak++
			}
			if d.badStreak >= 2 { // reaction delay of the control loop
				set(0, "revert: sustained unmet memory demand in telemetry")
				arm.RevertedAt = i
				arm.Aborted = true
			}
		}
	} else if i >= d.shrinkAt && arm.RevertedAt < 0 {
		// Ballooning arm: the probe starts at ShrinkAt and follows the
		// protocol; the engine tracks the probe's target.
		if sig, ok := d.tm.Signals(); ok {
			bd := d.balloon.Step(sig, true, d.nextMemMB, d.nextIO)
			set(bd.TargetMB, fmt.Sprintf("balloon probe: memory target %.0fMB", bd.TargetMB))
			if arm.ShrunkAt < 0 && bd.TargetMB > 0 {
				arm.ShrunkAt = i
			}
			if bd.Aborted {
				arm.Aborted = true
				arm.RevertedAt = i
				dec.Explanations = append(dec.Explanations, "balloon probe aborted: I/O rose near the working set")
			}
			if bd.MemoryDemandLow {
				// Would be a genuine scale-down; does not happen with a
				// 3GB working set.
				arm.RevertedAt = i
			}
		}
	}
	return dec
}

// describeMemoryMB renders a memory target for DecisionRecords.
func describeMemoryMB(mb float64) string { return fmt.Sprintf("%.0fMB", mb) }
