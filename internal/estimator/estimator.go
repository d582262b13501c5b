package estimator

import (
	"fmt"
	"math"

	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// ResourceState is the categorized view of one resource's signals — the
// discrete domain the rules run on, exposed for diagnostics and
// explanations.
type ResourceState struct {
	Kind           resource.Kind
	Utilization    Level
	Wait           Level
	PctSignificant bool
	UtilRising     bool
	WaitRising     bool
	CorrBottleneck bool
	// EffectiveUtilization and EffectiveWaitMs are the values the levels
	// were computed from: the windowed median, or the two-interval
	// confirmation when a burst onset outruns the median.
	EffectiveUtilization float64
	EffectiveWaitMs      float64
}

// Demand is the estimator's output: per-resource container-step changes in
// {−1, 0, +1, +2}, the categorized states behind them, and explanations of
// the rule path taken (Section 4's "explanation" feature).
type Demand struct {
	// Steps holds the estimated step change per physical resource.
	Steps [resource.NumKinds]int
	// States holds the categorized signals per resource.
	States [resource.NumKinds]ResourceState
	// Explanations describes, per decision, the rule that fired.
	Explanations []string
}

// MaxStep returns the largest scale-up step across resources (0 when no
// resource has high demand).
func (d Demand) MaxStep() int {
	m := 0
	for _, s := range d.Steps {
		if s > m {
			m = s
		}
	}
	return m
}

// AnyHigh reports whether any resource shows high demand.
func (d Demand) AnyHigh() bool { return d.MaxStep() > 0 }

// Estimator combines the telemetry manager's signals into per-resource
// demand estimates via the rule hierarchy of Section 4.2/4.3.
type Estimator struct {
	th   Thresholds
	sens Sensitivity
}

// New creates an estimator with the given thresholds and sensitivity knob.
func New(th Thresholds, sens Sensitivity) (*Estimator, error) {
	if err := th.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{th: th, sens: sens}, nil
}

// classify reduces one resource's signals to the categorical domain.
func (e *Estimator) classify(k resource.Kind, sig *telemetry.Signals) ResourceState {
	rs := sig.Resources[k]
	up := e.sens.upFactor()
	// Burst-onset fast path: the windowed medians lag a sudden load change
	// by half the window. When the two most recent intervals agree (their
	// minimum is itself robust to a single outlier), classification uses
	// whichever view is larger.
	wc := telemetry.WaitClassFor(k)
	effWait := math.Max(rs.WaitMs, math.Min(sig.Current.WaitMs[wc], rs.PrevWaitMs))
	effUtil := math.Max(rs.Utilization, math.Min(sig.Current.Utilization[k], rs.PrevUtilization))
	effPct := math.Max(rs.WaitPct, sig.Current.WaitPct(wc))
	st := ResourceState{
		Kind:                 k,
		Utilization:          e.th.utilLevel(effUtil),
		Wait:                 e.th.waitLevel(k, effWait, up),
		PctSignificant:       effPct >= e.th.WaitPctSignificant,
		UtilRising:           rs.UtilTrend.Significant && rs.UtilTrend.Slope > 0,
		WaitRising:           rs.WaitTrend.Significant && rs.WaitTrend.Slope > 0,
		CorrBottleneck:       rs.WaitLatencyCorr >= e.th.CorrSignificant,
		EffectiveUtilization: effUtil,
		EffectiveWaitMs:      effWait,
	}
	return st
}

// Estimate runs the rule hierarchy over the signals and returns the demand
// estimate. The memory dimension only ever scales up here; scaling memory
// down requires the ballooning protocol (see Balloon).
//
// When the signals' Quality is degraded — the telemetry window behind them
// had gaps, sanitized counters or delivery anomalies — the estimator widens
// its no-op band: the two-step extreme estimates are clamped to one step,
// and a severely degraded window yields no resize at all (acting boldly on
// damaged evidence risks both overshoot and working-set eviction).
func (e *Estimator) Estimate(sig telemetry.Signals) Demand {
	var d Demand
	for _, k := range resource.Kinds {
		st := e.classify(k, &sig)
		d.States[k] = st
		var step int
		var why string
		if k == resource.Memory {
			step, why = e.memoryRules(st, &sig)
		} else {
			step, why = e.queueRules(st, &sig)
		}
		d.Steps[k] = step
		if why != "" {
			d.Explanations = append(d.Explanations, why)
		}
	}
	e.degrade(&d, sig.Quality)
	return d
}

// degrade applies the graceful-degradation policy to an estimate
// (DESIGN.md §9): pristine quality changes nothing.
func (e *Estimator) degrade(d *Demand, q telemetry.Quality) {
	if !q.Degraded() {
		return
	}
	if q.Severe() {
		held := false
		for k := range d.Steps {
			if d.Steps[k] != 0 {
				d.Steps[k] = 0
				held = true
			}
		}
		if held {
			d.Explanations = append(d.Explanations,
				fmt.Sprintf("telemetry severely degraded (%v): holding every resource", q))
		}
		return
	}
	for k := range d.Steps {
		if d.Steps[k] > 1 {
			d.Steps[k] = 1
			d.Explanations = append(d.Explanations,
				fmt.Sprintf("telemetry degraded (%v): clamping %s scale-up to one step", q, resource.Kind(k)))
		}
	}
}

// queueRules implements the high/low-demand rules for CPU, disk I/O and
// log I/O (the queued resources). The illustrative scenarios of Section 4.2:
//
//	(a) utilization HIGH ∧ waits HIGH ∧ percentage waits SIGNIFICANT,
//	(b) utilization HIGH ∧ waits HIGH ∧ ¬SIGNIFICANT ∧ rising trend,
//	(c) utilization HIGH ∧ waits MEDIUM ∧ SIGNIFICANT ∧ rising trend,
//	(d) waits ≥ MEDIUM ∧ SIGNIFICANT ∧ wait–latency correlation strong
//	    ∧ latency degrading (the bottleneck rule),
//	(e) the extreme case of (a) at saturation estimates two steps.
//
// Every rule combines at least two signals; a weak signal (e.g. waits only
// MEDIUM) requires an additional confirming signal (trend or correlation).
func (e *Estimator) queueRules(st ResourceState, sig *telemetry.Signals) (int, string) {
	rs := sig.Resources[st.Kind]
	latencyDegrading := sig.Latency.Trend.Significant && sig.Latency.Trend.Slope > 0
	name := st.Kind.String()

	// Freshness gate: windowed medians lag a container resize by a few
	// intervals. Demand is only "unmet" if the *latest* interval still
	// shows waits — otherwise the resize already satisfied it and acting
	// on the stale median would overshoot.
	wc := telemetry.WaitClassFor(st.Kind)
	currentlyWaiting := sig.Current.WaitMs[wc] >= e.th.WaitLowMs[st.Kind]
	if !currentlyWaiting {
		// No scale-up possible; fall through to the low-demand test.
		down := e.sens.downFactor()
		if rs.Utilization < e.th.UtilLow*down &&
			rs.WaitMs < e.th.WaitLowMs[st.Kind]*down &&
			!st.UtilRising && !st.WaitRising {
			return -1, fmt.Sprintf("scale-down %s: utilization LOW, waits LOW, no rising trend", name)
		}
		return 0, ""
	}

	// (e) Extreme saturation: two steps.
	if st.EffectiveUtilization >= e.th.ExtremeUtil &&
		st.EffectiveWaitMs >= e.th.WaitHighMs[st.Kind]*e.th.ExtremeWaitFactor*e.sens.upFactor() &&
		st.PctSignificant {
		return 2, fmt.Sprintf("scale-up %s by 2: saturation (utilization %.0f%% ≥ %.0f%%, waits far above HIGH, significant wait share)",
			name, st.EffectiveUtilization*100, e.th.ExtremeUtil*100)
	}
	// (a)
	if st.Utilization == High && st.Wait == High && st.PctSignificant {
		return 1, fmt.Sprintf("scale-up %s: utilization HIGH, waits HIGH, significant wait share", name)
	}
	// (b)
	if st.Utilization == High && st.Wait == High && !st.PctSignificant && (st.UtilRising || st.WaitRising) {
		return 1, fmt.Sprintf("scale-up %s: utilization HIGH, waits HIGH, rising trend", name)
	}
	// (c)
	if st.Utilization == High && st.Wait == Medium && st.PctSignificant && (st.UtilRising || st.WaitRising) {
		return 1, fmt.Sprintf("scale-up %s: utilization HIGH, waits MEDIUM but significant and rising", name)
	}
	// (d) bottleneck correlation: waits need not be HIGH if they track the
	// degrading latency and dominate the wait mix.
	if st.Wait >= Medium && st.PctSignificant && st.CorrBottleneck && latencyDegrading {
		return 1, fmt.Sprintf("scale-up %s: waits correlate with degrading latency (bottleneck)", name)
	}

	// Low demand: utilization LOW, waits LOW, and no rising trend in
	// either (Section 4.3's mirror-image tests).
	down := e.sens.downFactor()
	if rs.Utilization < e.th.UtilLow*down &&
		rs.WaitMs < e.th.WaitLowMs[st.Kind]*down &&
		!st.UtilRising && !st.WaitRising {
		return -1, fmt.Sprintf("scale-down %s: utilization LOW, waits LOW, no rising trend", name)
	}
	return 0, ""
}

// memoryRules detects high memory demand. Memory differs from the queued
// resources: its "utilization" (cache fill) is almost always high, so
// demand shows as memory/buffer-pool waits and as disk I/O pressure caused
// by misses. Low memory demand is never concluded here — only the
// ballooning protocol can establish it (Section 4.3).
func (e *Estimator) memoryRules(st ResourceState, sig *telemetry.Signals) (int, string) {
	rs := sig.Resources[resource.Memory]
	latencyDegrading := sig.Latency.Trend.Significant && sig.Latency.Trend.Slope > 0
	// Freshness gate, as in queueRules.
	if sig.Current.WaitMs[telemetry.WaitMemory] < e.th.WaitLowMs[resource.Memory] {
		return 0, ""
	}

	// Extreme: the working set is far from fitting; page-in stalls dominate.
	if rs.WaitMs >= e.th.WaitHighMs[resource.Memory]*e.th.ExtremeWaitFactor*e.sens.upFactor() && st.PctSignificant {
		return 2, "scale-up memory by 2: buffer-pool waits far above HIGH with significant share"
	}
	if st.Wait == High && st.PctSignificant {
		return 1, "scale-up memory: buffer-pool waits HIGH with significant wait share"
	}
	if st.Wait == High && (st.WaitRising || latencyDegrading) {
		return 1, "scale-up memory: buffer-pool waits HIGH and rising"
	}
	if st.Wait == Medium && st.PctSignificant && st.CorrBottleneck && latencyDegrading {
		return 1, "scale-up memory: buffer-pool waits correlate with degrading latency"
	}
	return 0, ""
}
