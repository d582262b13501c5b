// Package policy defines the container-sizing policies the paper compares
// (Section 7.2): the Max gold standard, the offline Static (Peak / Avg)
// and Trace (demand-hugging oracle) baselines, the online utilization-only
// autoscaler Util that emulates today's cloud VM autoscalers, and an
// adapter exposing the paper's Auto (package core) behind the same
// interface.
package policy

import (
	"fmt"

	"daasscale/internal/core"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// Decision is a policy's choice for the next billing interval.
type Decision struct {
	// Target is the container to run the next interval in.
	Target resource.Container
	// Changed reports whether Target differs from the previous interval.
	Changed bool
	// BalloonTargetMB, when > 0, asks the engine to limit memory use (only
	// the Auto policy ever sets it).
	BalloonTargetMB float64
	// Explanations narrates the decision, when the policy supports it.
	Explanations []string
}

// Policy chooses a container for each billing interval from the telemetry
// of the interval that just completed.
type Policy interface {
	// Name identifies the policy in reports ("Max", "Peak", "Util", ...).
	Name() string
	// Observe ingests the completed interval's snapshot and returns the
	// decision for the next interval.
	Observe(s telemetry.Snapshot) Decision
	// Container returns the currently selected container.
	Container() resource.Container
}

// Static pins a single container for the whole run: Max when given the
// largest container, or the offline Peak/Avg provisioning baselines when
// given a container derived from historical utilization.
type Static struct {
	name string
	cont resource.Container
}

// NewStatic creates a fixed-container policy.
func NewStatic(name string, c resource.Container) *Static {
	return &Static{name: name, cont: c}
}

// NewMax returns the gold-standard policy: the largest container the
// service offers (best latency, highest cost).
func NewMax(cat *resource.Catalog) *Static {
	return NewStatic("Max", cat.Largest())
}

// Name implements Policy.
func (p *Static) Name() string { return p.name }

// Observe implements Policy: the container never changes.
func (p *Static) Observe(telemetry.Snapshot) Decision { return Decision{Target: p.cont} }

// Container implements Policy.
func (p *Static) Container() resource.Container { return p.cont }

// TraceOracle replays a precomputed schedule of containers — the offline
// technique that "hugs" the demand curve using exact knowledge of the
// workload's resource requirements per interval (Section 7.2.1).
type TraceOracle struct {
	schedule []resource.Container
	idx      int
	cur      resource.Container
}

// NewTraceOracle creates the oracle from a per-interval schedule; the
// schedule must be non-empty. Intervals beyond the schedule reuse its last
// entry.
func NewTraceOracle(schedule []resource.Container) (*TraceOracle, error) {
	if len(schedule) == 0 {
		return nil, fmt.Errorf("policy: trace oracle requires a non-empty schedule")
	}
	return &TraceOracle{
		schedule: append([]resource.Container(nil), schedule...),
		cur:      schedule[0],
	}, nil
}

// Name implements Policy.
func (p *TraceOracle) Name() string { return "Trace" }

// Observe implements Policy: step to the next scheduled container.
func (p *TraceOracle) Observe(telemetry.Snapshot) Decision {
	p.idx++
	next := p.schedule[len(p.schedule)-1]
	if p.idx < len(p.schedule) {
		next = p.schedule[p.idx]
	}
	changed := next.Name != p.cur.Name
	p.cur = next
	return Decision{Target: next, Changed: changed}
}

// Container implements Policy.
func (p *TraceOracle) Container() resource.Container { return p.cur }

// Auto adapts the paper's auto-scaler (package core) to the Policy
// interface.
type Auto struct {
	scaler *core.AutoScaler
}

// NewAuto wraps a configured core.AutoScaler.
func NewAuto(scaler *core.AutoScaler) *Auto { return &Auto{scaler: scaler} }

// Name implements Policy.
func (p *Auto) Name() string { return "Auto" }

// Observe implements Policy.
func (p *Auto) Observe(s telemetry.Snapshot) Decision {
	d := p.scaler.Observe(s)
	return Decision{
		Target:          d.Target,
		Changed:         d.Changed,
		BalloonTargetMB: d.BalloonTargetMB,
		Explanations:    d.Explanations,
	}
}

// Container implements Policy.
func (p *Auto) Container() resource.Container { return p.scaler.Container() }
