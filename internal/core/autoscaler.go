// Package core implements the paper's end-to-end auto-scaling logic
// (Section 6): a closed loop that, at the end of every billing interval,
// combines the telemetry manager's robust signals, the resource demand
// estimator's per-resource step estimates, the tenant's optional latency
// goal and performance-sensitivity knob, and the budget manager's available
// budget into a container-sizing action.
//
// The control rules follow the paper:
//
//   - Scale up only when there is resource demand — a latency goal being
//     missed for reasons beyond resources (e.g. lock contention) never adds
//     resources.
//   - When a latency goal is met with margin, prefer a smaller container
//     even if there is demand for a larger one.
//   - Never exceed the available per-interval budget Bi; when the desired
//     container is unaffordable, fall back to the most expensive container
//     within Bi ("Scale-up constrained by budget").
//   - Low memory demand is only ever concluded through the ballooning
//     protocol.
package core

import (
	"fmt"

	"daasscale/internal/budget"
	"daasscale/internal/estimator"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// GoalKind selects which latency aggregate a goal constrains.
type GoalKind int

// Goal kinds.
const (
	// GoalNone disables latency-based decisions: scaling is purely
	// demand-driven.
	GoalNone GoalKind = iota
	// GoalP95 constrains the 95th-percentile latency.
	GoalP95
	// GoalAvg constrains the average latency.
	GoalAvg
)

// String names the goal kind.
func (g GoalKind) String() string {
	switch g {
	case GoalNone:
		return "none"
	case GoalP95:
		return "p95"
	case GoalAvg:
		return "avg"
	default:
		return fmt.Sprintf("goalkind(%d)", int(g))
	}
}

// LatencyGoal is the tenant's optional latency goal (Section 2.3). Goals
// are not performance guarantees — they are a knob to control cost.
type LatencyGoal struct {
	Kind GoalKind
	Ms   float64
}

// LatencyState is the categorized latency signal.
type LatencyState int

// Latency states.
const (
	// LatencyUnknown means no goal is set or no signals are available yet.
	LatencyUnknown LatencyState = iota
	// LatencyGood means the goal is met.
	LatencyGood
	// LatencyBad means the goal is violated.
	LatencyBad
)

// String names the latency state.
func (s LatencyState) String() string {
	switch s {
	case LatencyUnknown:
		return "unknown"
	case LatencyGood:
		return "GOOD"
	case LatencyBad:
		return "BAD"
	default:
		return fmt.Sprintf("latencystate(%d)", int(s))
	}
}

// Config assembles an AutoScaler.
type Config struct {
	// Catalog is the set of containers the DaaS offers. Required.
	Catalog *resource.Catalog
	// Initial is the container the tenant starts in. Zero value selects
	// the smallest container.
	Initial resource.Container
	// Goal is the optional latency goal.
	Goal LatencyGoal
	// Budget manages the period budget; nil means unlimited.
	Budget *budget.Manager
	// Sensitivity is the coarse performance-sensitivity knob.
	Sensitivity estimator.Sensitivity
	// Thresholds for the demand estimator; zero value uses defaults.
	Thresholds estimator.Thresholds
	// Window is the telemetry window in billing intervals (0 → 5). Short
	// windows react within minutes; medians keep them robust.
	Window int
	// DisableBallooning turns the low-memory-demand probe off (the
	// "No Ballooning" arm of Figure 14).
	DisableBallooning bool
	// Balloon tunes the probe; zero value uses defaults.
	Balloon estimator.BalloonConfig
	// DownHoldIntervals is how many consecutive scale-down estimates are
	// required before shrinking the container (hysteresis against load
	// oscillation). 0 → 3.
	DownHoldIntervals int
	// DownLatencyMargin requires the measured latency be below
	// goal·margin before a scale-down when a goal is set (headroom so the
	// smaller container does not immediately violate the goal). 0 → 0.8.
	DownLatencyMargin float64
}

// Decision is the auto-scaler's per-interval output.
type Decision struct {
	// Interval is the billing interval the decision applies to (the one
	// following the observed snapshot).
	Interval int
	// Target is the container to use next.
	Target resource.Container
	// Changed reports whether Target differs from the previous container.
	Changed bool
	// BalloonTargetMB, when > 0, is the memory target the engine should
	// enforce (the ballooning probe); 0 releases any target.
	BalloonTargetMB float64
	// Latency is the categorized latency state at decision time.
	Latency LatencyState
	// Demand is the estimator's output (states, steps, explanations).
	Demand estimator.Demand
	// BudgetAvailable is Bi at decision time.
	BudgetAvailable float64
	// BudgetConstrained reports that the desired container was not
	// affordable and a cheaper fallback was selected.
	BudgetConstrained bool
	// Explanations narrates the decision (estimator rule paths plus the
	// auto-scaling logic's own reasoning).
	Explanations []string
}

// headroomFit is the utilization the next smaller container may reach
// before a headroom scale-down is considered safe.
const headroomFit = 0.7

// queuesAllDown reports whether every queued (non-memory) resource has a
// scale-down estimate — the trigger condition for the ballooning probe.
func queuesAllDown(steps [resource.NumKinds]int) bool {
	for _, k := range []resource.Kind{resource.CPU, resource.DiskIO, resource.LogIO} {
		if steps[k] >= 0 {
			return false
		}
	}
	return steps[resource.Memory] <= 0
}

// AutoScaler is the closed-loop controller for one tenant.
type AutoScaler struct {
	cfg     Config
	cat     *resource.Catalog
	tm      *telemetry.Manager
	est     *estimator.Estimator
	bud     *budget.Manager
	balloon *estimator.Balloon
	cur     resource.Container

	downStreak int
}

// New builds an AutoScaler from the configuration.
func New(cfg Config) (*AutoScaler, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("core: Config.Catalog is required")
	}
	if cfg.Thresholds == (estimator.Thresholds{}) {
		cfg.Thresholds = estimator.DefaultThresholds()
	}
	if cfg.Window == 0 {
		cfg.Window = 5
	}
	if cfg.DownHoldIntervals == 0 {
		cfg.DownHoldIntervals = 3
	}
	if cfg.DownLatencyMargin == 0 {
		// The sensitivity knob also shapes how much latency headroom a
		// scale-down requires: HIGH-sensitivity tenants give up savings for
		// safety margin, LOW-sensitivity tenants shave cost aggressively.
		switch cfg.Sensitivity {
		case estimator.SensitivityHigh:
			cfg.DownLatencyMargin = 0.70
		case estimator.SensitivityLow:
			cfg.DownLatencyMargin = 0.95
		default:
			cfg.DownLatencyMargin = 0.85
		}
	}
	if cfg.Balloon == (estimator.BalloonConfig{}) {
		cfg.Balloon = estimator.DefaultBalloonConfig()
	}
	if cfg.Goal.Kind != GoalNone && cfg.Goal.Ms <= 0 {
		return nil, fmt.Errorf("core: latency goal of kind %v requires a positive target, got %v", cfg.Goal.Kind, cfg.Goal.Ms)
	}
	est, err := estimator.New(cfg.Thresholds, cfg.Sensitivity)
	if err != nil {
		return nil, err
	}
	a := &AutoScaler{
		cfg:     cfg,
		cat:     cfg.Catalog,
		tm:      telemetry.NewManager(cfg.Window),
		est:     est,
		bud:     cfg.Budget,
		balloon: estimator.NewBalloon(cfg.Balloon),
		cur:     cfg.Initial,
	}
	if a.bud == nil {
		a.bud = budget.Unlimited()
	}
	if a.cur.Name == "" {
		a.cur = a.cat.Smallest()
	}
	return a, nil
}

// Container returns the currently selected container.
func (a *AutoScaler) Container() resource.Container { return a.cur }

// ForceContainer reconciles the controller with the management fabric's
// outcome: when the fabric refuses a resize (no server can host the
// requested container), the tenant keeps its old container and the
// controller must adopt that reality before the next decision.
func (a *AutoScaler) ForceContainer(c resource.Container) {
	a.cur = c
	a.downStreak = 0
}

// latencyState categorizes latency: BAD when the windowed median violates
// the goal, or — the fast path for burst onsets — when the two most recent
// intervals both violate it (one interval alone is treated as noise).
func (a *AutoScaler) latencyState(sig telemetry.Signals) (LatencyState, float64) {
	switch a.cfg.Goal.Kind {
	case GoalP95:
		if sig.Latency.P95Ms > a.cfg.Goal.Ms ||
			(sig.Current.P95LatencyMs > a.cfg.Goal.Ms && sig.Latency.PrevP95Ms > a.cfg.Goal.Ms) {
			return LatencyBad, sig.Latency.P95Ms
		}
		return LatencyGood, sig.Latency.P95Ms
	case GoalAvg:
		if sig.Latency.AvgMs > a.cfg.Goal.Ms ||
			(sig.Current.AvgLatencyMs > a.cfg.Goal.Ms && sig.Latency.PrevAvgMs > a.cfg.Goal.Ms) {
			return LatencyBad, sig.Latency.AvgMs
		}
		return LatencyGood, sig.Latency.AvgMs
	default:
		return LatencyUnknown, sig.Latency.P95Ms
	}
}

// Observe ingests the telemetry snapshot of the billing interval that just
// completed, charges its cost to the budget, and returns the decision for
// the next interval. The controller keeps no decision history: the audit
// trail is the caller's record of the returned decisions (loop.DecisionRecord,
// persisted per tenant by the ledger).
func (a *AutoScaler) Observe(s telemetry.Snapshot) Decision {
	// Charge the completed interval. The cost was validated against the
	// available budget when the container was chosen.
	_ = a.bud.Charge(s.Cost)

	a.tm.Observe(s)
	d := Decision{
		Interval:        s.Interval + 1,
		Target:          a.cur,
		BalloonTargetMB: a.balloon.TargetMB(),
		BudgetAvailable: a.bud.Available(),
	}
	// The budget is a hard constraint: when the bucket can no longer cover
	// the current container, downgrade immediately to the most expensive
	// affordable one — independent of any demand signal.
	if a.cur.Cost > a.bud.Available() {
		target, _ := a.cat.CheapestWithin(a.cur.Alloc, a.bud.Available())
		if target.Name != a.cur.Name {
			d.Changed = true
			d.BudgetConstrained = true
			d.Explanations = append(d.Explanations,
				fmt.Sprintf("budget exhausted (available %.0f < cost %.0f): downgrading %s → %s",
					a.bud.Available(), a.cur.Cost, a.cur.Name, target.Name))
			a.cur = target
			a.downStreak = 0
			d.Target = a.cur
			return d
		}
	}
	sig, ok := a.tm.Signals()
	if !ok {
		d.Explanations = append(d.Explanations, "warming up: not enough telemetry history")
		return d
	}

	latState, observed := a.latencyState(sig)
	d.Latency = latState
	degrading := sig.Latency.Trend.Significant && sig.Latency.Trend.Slope > 0
	demand := a.est.Estimate(sig)
	d.Demand = demand
	d.Explanations = append(d.Explanations, demand.Explanations...)

	steps := demand.Steps
	// Headroom scale-down (the paper's framing: estimate whether "the
	// demand can be met by a smaller container"): a queued resource with
	// LOW waits and no rising trend whose current usage fits the next
	// smaller container with room to spare is a scale-down candidate even
	// if its utilization is not LOW on the current (larger) container.
	curStep := a.cat.StepOf(a.cur)
	if curStep > 0 {
		next := a.cat.AtStep(curStep - 1)
		for _, k := range []resource.Kind{resource.CPU, resource.DiskIO, resource.LogIO} {
			st := demand.States[k]
			if steps[k] != 0 || st.Wait != estimator.Low || st.WaitRising || st.UtilRising {
				continue
			}
			usage := sig.Resources[k].Utilization * a.cur.Alloc[k]
			if next.Alloc[k] > 0 && usage <= headroomFit*next.Alloc[k] {
				steps[k] = -1
				d.Explanations = append(d.Explanations,
					fmt.Sprintf("scale-down %s: waits LOW and usage (%.0f) fits %s with headroom", k, usage, next.Name))
			}
		}
	}

	// Ballooning: probe low memory demand only when everything else is
	// quiet and latency goals are met (or no goal is set).
	if a.cfg.DisableBallooning {
		// Without ballooning, memory is scaled down naively whenever every
		// other resource's demand is low — the risky behaviour Figure 14
		// demonstrates (an incorrect low-memory estimate evicts the working
		// set and latency pays for it).
		if queuesAllDown(steps) && steps[resource.Memory] == 0 {
			steps[resource.Memory] = -1
		}
	} else {
		nextSmallerMB, nextSmallerIOPS := 0.0, 0.0
		if curStep > 0 {
			next := a.cat.AtStep(curStep - 1)
			nextSmallerMB = next.Alloc[resource.Memory]
			nextSmallerIOPS = next.Alloc[resource.DiskIO]
		}
		safe := queuesAllDown(steps) && latState != LatencyBad && !degrading
		// When the memory in use already fits comfortably inside the next
		// smaller container, no probe is needed: the cache would not even
		// have to shrink, so memory demand is trivially low.
		if safe && steps[resource.Memory] == 0 && nextSmallerMB > 0 &&
			sig.MemoryUsedMB <= nextSmallerMB*0.95 {
			steps[resource.Memory] = -1
			d.Explanations = append(d.Explanations,
				fmt.Sprintf("memory in use (%.0fMB) fits the next smaller container (%.0fMB): demand low without probing", sig.MemoryUsedMB, nextSmallerMB))
		} else {
			bd := a.balloon.Step(sig, safe, nextSmallerMB, nextSmallerIOPS)
			if bd.Note != "" {
				d.Explanations = append(d.Explanations, bd.Note)
			}
			d.BalloonTargetMB = bd.TargetMB
			if bd.MemoryDemandLow {
				steps[resource.Memory] = -1
			}
		}
	}

	// Latency gating (Section 6 and Section 2.3):
	//   latency BAD or degrading → scale up only on resource demand; hold
	//     otherwise (the bottleneck is beyond resources);
	//   latency GOOD with margin → smaller containers allowed, and demand
	//     for more resources does NOT scale up (cost saving);
	//   no goal → purely demand-driven in both directions.
	downOK := true
	switch latState {
	case LatencyBad:
		for _, k := range resource.Kinds {
			if steps[k] < 0 {
				steps[k] = 0 // never shrink while the goal is violated
			}
		}
		downOK = false
		if demand.AnyHigh() {
			d.Explanations = append(d.Explanations, fmt.Sprintf("latency BAD (%.0fms > goal %.0fms): scaling up for resource demand", observed, a.cfg.Goal.Ms))
		} else {
			d.Explanations = append(d.Explanations, fmt.Sprintf("latency BAD (%.0fms > goal %.0fms) but no resource demand: bottleneck beyond resources, holding", observed, a.cfg.Goal.Ms))
		}
	case LatencyGood:
		if degrading && demand.AnyHigh() {
			// Early action on a significant degrading trend.
			d.Explanations = append(d.Explanations, "latency GOOD but degrading with resource demand: scaling up early")
			downOK = false
		} else {
			// Goal met: suppress scale-ups, permit scale-downs with margin.
			for _, k := range resource.Kinds {
				if steps[k] > 0 {
					steps[k] = 0
				}
			}
			if observed > a.cfg.Goal.Ms*a.cfg.DownLatencyMargin {
				downOK = false // not enough headroom to risk a smaller container
			}
		}
	case LatencyUnknown:
		// Demand-driven in both directions.
	}

	// Scale-down hysteresis: require persistence.
	wantsDown := false
	for _, st := range steps {
		if st < 0 {
			wantsDown = true
		}
	}
	if wantsDown && downOK {
		a.downStreak++
	} else {
		a.downStreak = 0
	}
	if wantsDown && (!downOK || a.downStreak < a.cfg.DownHoldIntervals) {
		for _, k := range resource.Kinds {
			if steps[k] < 0 {
				steps[k] = 0
			}
		}
		wantsDown = false
	}

	// Build the desired resource vector from the per-resource steps
	// (Section 6: "The resource demand of each resource comprises the
	// desired container size").
	desired := a.cur.Alloc
	anyChange := false
	for _, k := range resource.Kinds {
		if steps[k] == 0 {
			continue
		}
		anyChange = true
		desired[k] = a.cat.AtStep(curStep + steps[k]).Alloc[k]
	}
	if !anyChange {
		return d
	}

	target, affordable := a.cat.CheapestWithin(desired, a.bud.Available())
	if !affordable {
		d.BudgetConstrained = true
		d.Explanations = append(d.Explanations, fmt.Sprintf("scale-up constrained by budget: available %.0f", a.bud.Available()))
	}
	if target.Name != a.cur.Name {
		d.Changed = true
		d.Explanations = append(d.Explanations, fmt.Sprintf("container %s → %s (cost %.0f → %.0f)", a.cur.Name, target.Name, a.cur.Cost, target.Cost))
		a.cur = target
		a.downStreak = 0
	}
	d.Target = a.cur
	return d
}
