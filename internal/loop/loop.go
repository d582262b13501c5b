// Package loop owns the per-tenant control loop of every simulation: the
// paper's closed loop (§2, §6) of telemetry → demand estimation → scaling
// decision → resize, stepped once per billing interval. The four runners
// in internal/sim used to re-implement this loop by hand — four slightly
// drifting copies of the fault-routing, actuation-gating and finalization
// contracts — and all of them are now thin compositions over TenantLoop.
//
// The loop is generic over the desired-state type T: container loops run
// with T = resource.Container, the ballooning experiment with T = float64
// memory targets. One step is split in two phases to match the cluster
// runner's schedule: RunTicks (the engine work, embarrassingly parallel
// across tenants) and DecideApply (the decision and its application, run
// serially where loops share a fabric). Single-tenant runners simply call
// the two back to back.
//
// Every step can emit a DecisionRecord — the uniform audit record behind
// the `-explain` surface — through the pluggable Recorder.
package loop

import (
	"errors"

	"daasscale/internal/actuate"
	"daasscale/internal/engine"
	"daasscale/internal/exec"
	"daasscale/internal/fabric"
	"daasscale/internal/faults"
	"daasscale/internal/policy"
	"daasscale/internal/stats"
	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

// Decision is one interval's decided desired state.
type Decision[T comparable] struct {
	// Target is the desired substrate state.
	Target T
	// Changed asks the synchronous path to apply Target now.
	Changed bool
	// Submit asks the actuated path to write Target as a fresh desire.
	// The two gates differ: a withheld interval must not submit (a lost
	// telemetry payload must not supersede an in-flight resize), while a
	// delivered decision back to the current state must still submit on
	// policy loops — hence Submit tracks delivery, not change.
	Submit bool
	// BalloonTargetMB is the decision's memory target, routed to the
	// engine when Config.SetMemoryTarget is on (container loops; the
	// ballooning loop's Target already is the memory target).
	BalloonTargetMB float64
	// Explanations are the policy's rule-firing explanations.
	Explanations []string
}

// StepInfo tells the Decider how the interval's telemetry arrived.
type StepInfo struct {
	// Interval is the billing interval being decided.
	Interval int
	// Observed is true when at least one snapshot reached the decider.
	Observed bool
	// Faulted is true when a fault injector routes this loop's telemetry;
	// deciders re-derive Changed against the actual state in that case (a
	// mid-burst decision may have moved the policy's internal state while
	// the final decision reports no further change).
	Faulted bool
}

// Decider turns delivered telemetry into per-interval decisions. Observe
// is called once per delivered snapshot (zero times on a withheld
// interval, twice or more on duplicate/reorder bursts); Decide is then
// called exactly once per interval with the truthful snapshot and the
// substrate's pre-apply state.
type Decider[T comparable] interface {
	Observe(snap telemetry.Snapshot)
	Decide(info StepInfo, truth telemetry.Snapshot, actual T) Decision[T]
}

// Applier commits desired states to the substrate. Apply may fail with an
// error wrapping actuate.ErrRefused (a refusal: the loop reconciles and
// moves on) or with a hard error (surfaced to the caller). On the
// actuated path Apply doubles as the actuator's executor.
type Applier[T comparable] interface {
	Apply(T) error
	// Actual is the substrate's current state — the state decisions are
	// held against and the actuator's initial actual.
	Actual() T
}

// Reconciler re-anchors a stateful decider to the substrate's actual
// state: after a refused synchronous resize, and after every actuated
// step (the decider's next decision must start from reality, so requests
// stay incremental instead of compounding into an unplaceable target).
type Reconciler[T comparable] interface {
	ForceActual(T)
}

// Config assembles one TenantLoop.
type Config[T comparable] struct {
	// ID labels the loop's DecisionRecords (tenant ID, policy or arm name).
	ID string
	// Engine is the tenant's engine, already constructed and placed. Nil
	// for a loop fed only through StepSnapshot (the serving path), which
	// then builds no load generator and must not call RunTicks.
	Engine *engine.Engine
	// Seed is the tenant's run seed. The loop derives its private streams
	// from it: the load generator (Seed+GeneratorSeedOffset), the fault
	// injector (SplitSeed with FaultStreamSalt) and the actuation channel
	// (SplitSeed with ActuationStreamSalt).
	Seed int64
	// Jitter is the load generator's arrival jitter.
	Jitter float64
	// Decider and Applier are required; Reconciler is optional.
	Decider    Decider[T]
	Applier    Applier[T]
	Reconciler Reconciler[T]
	// Faults is the telemetry fault plan (zero value = clean channel).
	Faults faults.Plan
	// Actuation configures the decision→substrate channel (zero value =
	// synchronous, infallible).
	Actuation actuate.Config
	// Recorder, when set, receives one DecisionRecord per step.
	Recorder Recorder
	// Describe renders a state for DecisionRecords (nil = blank labels).
	Describe func(T) string
	// SetMemoryTarget routes Decision.BalloonTargetMB to the engine after
	// every apply — the container loops' contract. The ballooning loop
	// leaves it off: its applier already owns the memory target.
	SetMemoryTarget bool
	// CollectLatencies makes RunTicks copy every interval's latency samples
	// (engine.IntervalLatencies) into a run-level buffer, so Finalize can
	// compute run-level P95/Avg over every request.
	CollectLatencies bool
	// SampleCapacityHint pre-sizes the run-level latency buffer (used with
	// CollectLatencies) so collection never reallocates mid-run. Runners
	// that know their interval count pass
	// intervals × TicksPerInterval × engine.MaxLatencySamplesPerTick;
	// zero grows on demand.
	SampleCapacityHint int
}

// TenantLoop steps one tenant's control loop. It is single-goroutine
// state: cluster runners may run different loops' RunTicks concurrently,
// but one loop's methods must not be called concurrently.
type TenantLoop[T comparable] struct {
	cfg Config[T]
	eng *engine.Engine
	gen *workload.Generator
	inj *faults.Injector
	act *actuate.Actuator[T]

	snap      telemetry.Snapshot
	dec       Decision[T]
	actual    T
	observed  bool
	totalCost float64
	changes   int
	samples   []float64

	// offered is the per-interval offered-load buffer RunTicks hands to
	// engine.TickBatch, reused across intervals.
	offered []float64
	// delivered, preFaults and preAct carry Decide's channel observations
	// to Apply (the two halves of a step may run in different phases of a
	// cluster schedule; see Decide/Apply).
	delivered int
	preFaults faults.Stats
	preAct    actuate.Stats

	// node, pressure and inflation are the cluster runner's contention
	// stamp (SetNodeContention): the hosting server and the interference
	// state the engine runs under, carried into every DecisionRecord.
	// node is −1 off-fabric.
	node      int
	pressure  fabric.Pressure
	inflation fabric.Inflation
}

// Totals is the loop's run-level aggregation.
type Totals struct {
	Intervals          int
	TotalCost          float64
	AvgCostPerInterval float64
	// Changes counts resizes; on the actuated path it counts resizes that
	// actually reached the substrate (the actuator's Applied), not
	// decisions that merely wished for one.
	Changes        int
	ChangeFraction float64
	// P95Ms and AvgMs are computed over every request of the whole run
	// (zero unless Config.CollectLatencies).
	P95Ms float64
	AvgMs float64
	// Faults and Actuation are the channels' cumulative counters.
	Faults    faults.Stats
	Actuation actuate.Stats
}

// New assembles a loop. The decider and applier must be non-nil.
func New[T comparable](cfg Config[T]) *TenantLoop[T] {
	lp := &TenantLoop[T]{
		cfg:  cfg,
		eng:  cfg.Engine,
		node: -1,
	}
	if cfg.Engine != nil {
		lp.gen = workload.NewGenerator(cfg.Seed+GeneratorSeedOffset, cfg.Jitter)
	}
	if cfg.Faults.Enabled() {
		// The stream seed depends only on the run seed, so every policy
		// of a comparison sees the same fault timing and parallel runs
		// are bit-identical to serial ones.
		lp.inj = faults.NewInjector(cfg.Faults, exec.SplitSeed(cfg.Seed, FaultStreamSalt))
	}
	if cfg.Actuation.Enabled() {
		// Same determinism anchor: the actuation stream derives from the
		// run seed alone, never from scheduling.
		lp.act = actuate.New(cfg.Actuation, exec.SplitSeed(cfg.Seed, ActuationStreamSalt), cfg.Applier.Actual())
	}
	if cfg.CollectLatencies && cfg.SampleCapacityHint > 0 {
		lp.samples = make([]float64, 0, cfg.SampleCapacityHint)
	}
	return lp
}

// appendSamples bulk-appends one interval's latency samples to the
// run-level buffer. Growth doubles the backing array instead of relying on
// append's growth factor: the buffer holds every request of the run
// (hundreds of intervals), and doubling keeps the total bytes moved across
// a run linear in the final size. Samples land in generation order, but
// Finalize reorders them in place before it takes the mean (see there).
func (lp *TenantLoop[T]) appendSamples(s []float64) {
	if need := len(lp.samples) + len(s); need > cap(lp.samples) {
		grow := 2 * cap(lp.samples)
		if grow < need {
			grow = need
		}
		ns := make([]float64, len(lp.samples), grow)
		copy(ns, lp.samples)
		lp.samples = ns
	}
	lp.samples = append(lp.samples, s...)
}

// RunTicks drives one billing interval of engine work at the given target
// load and snapshots it. This is the parallel phase: it touches only the
// loop's own engine and generator. The interval's offered loads are drawn
// up front into a reused buffer and run through engine.TickBatch — the
// generator and the engine own independent RNG streams, so drawing the
// loads first preserves both sequences.
func (lp *TenantLoop[T]) RunTicks(targetRPS float64) {
	n := lp.eng.TicksPerInterval()
	if cap(lp.offered) < n {
		lp.offered = make([]float64, n)
	}
	buf := lp.offered[:n]
	for t := range buf {
		buf[t] = lp.gen.Offered(targetRPS)
	}
	lp.eng.TickBatch(buf)
	if lp.cfg.CollectLatencies {
		// Copy the interval's samples before EndInterval resets them.
		lp.appendSamples(lp.eng.IntervalLatencies())
	}
	lp.snap = lp.eng.EndInterval()
}

// Decide runs the decision half of the interval snapshotted by the last
// RunTicks: cost accrual, telemetry delivery through the fault injector,
// and the decision itself. It reads and writes only loop-private state —
// the engine, the decider, the injector, and the applier's Actual (the
// loop's own substrate record) — never shared infrastructure, which is
// what lets a cluster schedule fan Decide across workers while holding
// back only Apply. Apply must follow before the next Decide.
func (lp *TenantLoop[T]) Decide(interval int) {
	lp.totalCost += lp.snap.Cost
	lp.actual = lp.cfg.Applier.Actual()

	lp.preFaults, lp.preAct = faults.Stats{}, actuate.Stats{}
	if lp.cfg.Recorder != nil {
		if lp.inj != nil {
			lp.preFaults = lp.inj.Stats()
		}
		if lp.act != nil {
			lp.preAct = lp.act.Stats()
		}
	}

	// Telemetry delivery. A clean channel delivers the snapshot verbatim;
	// the injector may withhold the interval (drop, or reorder hold-back)
	// or deliver a burst (a duplicate, or a held snapshot released), in
	// which case the decider observes each in turn and the last decision
	// wins.
	delivered := 0
	if lp.inj == nil {
		lp.cfg.Decider.Observe(lp.snap)
		delivered = 1
	} else {
		for _, fs := range lp.inj.Apply(lp.snap) {
			lp.cfg.Decider.Observe(fs)
			delivered++
		}
	}
	lp.delivered = delivered
	lp.observed = delivered > 0
	lp.dec = lp.cfg.Decider.Decide(StepInfo{
		Interval: interval,
		Observed: lp.observed,
		Faulted:  lp.inj != nil,
	}, lp.snap, lp.actual)
}

// Apply commits the decision of the last Decide to the substrate —
// synchronously or through the actuation channel — reconciles the decider
// with the substrate's reality, and emits the DecisionRecord. This is the
// serial half: on a shared fabric the applies must run in tenant order.
func (lp *TenantLoop[T]) Apply(interval int) error {
	dec := lp.dec
	delivered := lp.delivered
	preFaults, preAct := lp.preFaults, lp.preAct

	if lp.act == nil {
		// Synchronous path: the decision applies instantly within the
		// interval. A refusal leaves the substrate untouched — the tenant
		// keeps its state and the decider is reconciled with reality; a
		// hard error surfaces.
		if dec.Changed {
			err := lp.cfg.Applier.Apply(dec.Target)
			switch {
			case errors.Is(err, actuate.ErrRefused):
				if lp.cfg.Reconciler != nil {
					lp.cfg.Reconciler.ForceActual(lp.cfg.Applier.Actual())
				}
			case err != nil:
				return err
			default:
				lp.changes++
			}
		}
	} else {
		// Actuated path: the decision is a desired-state write; the
		// actuator reconciles it onto the substrate through the failable
		// channel. Submit is idempotent, so re-issuing an unchanged
		// target every interval is free; a withheld interval submits
		// nothing, leaving in-flight operations alone.
		if dec.Submit {
			lp.act.Submit(dec.Target)
		}
		if err := lp.act.Step(interval, lp.cfg.Applier.Apply); err != nil {
			return err
		}
		if lp.cfg.Reconciler != nil {
			// Re-anchor the decider to the substrate's reality: its next
			// decision starts from the actual state, so requests stay
			// incremental — a refused change is re-derived from
			// observations instead of compounding into a target the
			// substrate can never satisfy.
			lp.cfg.Reconciler.ForceActual(lp.cfg.Applier.Actual())
		}
	}
	if lp.cfg.SetMemoryTarget {
		lp.eng.SetMemoryTargetMB(dec.BalloonTargetMB)
	}

	if lp.cfg.Recorder != nil {
		rec := DecisionRecord{
			Tenant:          lp.cfg.ID,
			Interval:        interval,
			Snapshot:        lp.snap,
			Changed:         dec.Changed,
			Observed:        lp.observed,
			Submitted:       lp.act != nil && dec.Submit,
			BalloonTargetMB: dec.BalloonTargetMB,
			Explanations:    dec.Explanations,
			Delivered:       delivered,
			Node:            lp.node,
			NodePressure:    lp.pressure,
			WaitInflation:   lp.inflation,
		}
		if lp.cfg.Describe != nil {
			rec.Actual = lp.cfg.Describe(lp.actual)
			rec.Target = lp.cfg.Describe(dec.Target)
		}
		if lp.node >= 0 {
			if mult := lp.inflation.Max(); mult >= policy.InflationExplainThreshold {
				// Fresh slice: the decision's explanations may share a
				// backing array with the decider's internals.
				exp := make([]string, 0, len(rec.Explanations)+1)
				exp = append(exp, rec.Explanations...)
				rec.Explanations = append(exp, policy.ContentionExplanation(lp.node, mult))
			}
		}
		if lp.inj != nil {
			rec.Faults = subFaultStats(lp.inj.Stats(), preFaults)
		}
		if lp.act != nil {
			rec.Actuation = subActuationStats(lp.act.Stats(), preAct)
		}
		lp.cfg.Recorder.Record(rec)
	}
	return nil
}

// SetNodeContention stamps the loop with its hosting server's contention
// state — the node index, channel pressures, and the wait-inflation
// multipliers the engine runs under. Cluster runners call it from the
// serial apply phase after recomputing node pressure, i.e. the stamp
// describes the interference active for the *following* intervals, which
// is exactly what their DecisionRecords should carry (the engines consume
// the same multipliers via engine.SetContention). Off-fabric loops never
// call it and keep node −1.
func (lp *TenantLoop[T]) SetNodeContention(node int, p fabric.Pressure, inf fabric.Inflation) {
	lp.node = node
	lp.pressure = p
	lp.inflation = inf
}

// StepSnapshot runs one full decision step against an externally
// collected snapshot — the serving path, where telemetry arrives over the
// wire instead of from a loop-owned engine. The loop's engine and
// generator are never touched (Config.Engine may be nil when
// SetMemoryTarget is off), and the wire channel's fault handling —
// dedup, reordering, sanitization — is the caller's job, so the loop's
// own injector is bypassed: observed=true feeds the snapshot to the
// decider exactly once; observed=false is a withheld interval (the
// ingest gap a bounded reorder window gave up waiting on) and yields the
// hold decision. Everything downstream — decision, apply, reconcile,
// DecisionRecord — is the same code path the simulation runners audit.
func (lp *TenantLoop[T]) StepSnapshot(interval int, snap telemetry.Snapshot, observed bool) error {
	lp.snap = snap
	lp.totalCost += snap.Cost
	lp.actual = lp.cfg.Applier.Actual()

	lp.preFaults, lp.preAct = faults.Stats{}, actuate.Stats{}
	if lp.cfg.Recorder != nil && lp.act != nil {
		lp.preAct = lp.act.Stats()
	}
	lp.delivered = 0
	if observed {
		lp.cfg.Decider.Observe(snap)
		lp.delivered = 1
	}
	lp.observed = observed
	lp.dec = lp.cfg.Decider.Decide(StepInfo{
		Interval: interval,
		Observed: observed,
		Faulted:  false,
	}, snap, lp.actual)
	return lp.Apply(interval)
}

// DecideApply runs the decision phase of the interval snapshotted by the
// last RunTicks — Decide then Apply, back to back. Single-tenant loops
// (and cluster schedules with nothing to parallelize) use this
// composition; it is exactly the historical single-call sequence.
func (lp *TenantLoop[T]) DecideApply(interval int) error {
	lp.Decide(interval)
	return lp.Apply(interval)
}

// Step runs one full interval — RunTicks then DecideApply — the
// single-tenant composition.
func (lp *TenantLoop[T]) Step(interval int, targetRPS float64) error {
	lp.RunTicks(targetRPS)
	return lp.DecideApply(interval)
}

// Snapshot returns the truthful snapshot of the last interval.
func (lp *TenantLoop[T]) Snapshot() telemetry.Snapshot { return lp.snap }

// LastDecision returns the last interval's decision.
func (lp *TenantLoop[T]) LastDecision() Decision[T] { return lp.dec }

// Finalize computes the loop's run-level totals over the given number of
// intervals (cluster runners pass the cluster-wide interval count, which
// may exceed this tenant's trace).
func (lp *TenantLoop[T]) Finalize(intervals int) Totals {
	tot := Totals{
		Intervals: intervals,
		TotalCost: lp.totalCost,
		Changes:   lp.changes,
	}
	if intervals > 0 {
		tot.AvgCostPerInterval = tot.TotalCost / float64(intervals)
		tot.ChangeFraction = float64(tot.Changes) / float64(intervals)
	}
	if len(lp.samples) > 0 {
		// The sample buffer is private to this loop and dead after these
		// aggregates, so the percentile selects in place. Mean then sums
		// the buffer in QuantileSelect's post-selection order, so AvgMs's
		// last bits depend on that permutation (goldenEquivalence pins
		// it): change the selection kernel and AvgMs moves.
		tot.P95Ms = stats.QuantileSelect(lp.samples, 0.95)
		tot.AvgMs = stats.Mean(lp.samples)
	}
	if lp.inj != nil {
		tot.Faults = lp.inj.Stats()
	}
	if lp.act != nil {
		// On the actuated path, Changes counts resizes that actually
		// reached the substrate, not decisions that merely wished for one.
		tot.Actuation = lp.act.Stats()
		tot.Changes = tot.Actuation.Applied
		if intervals > 0 {
			tot.ChangeFraction = float64(tot.Changes) / float64(intervals)
		}
	}
	return tot
}
