package sim

import (
	"daasscale/internal/actuate"
	"daasscale/internal/faults"
	"daasscale/internal/resource"
)

// Uniform spec validation. Every Run* path calls the spec's Validate before
// any work starts, and every failure wraps the same sentinel
// (ErrInvalidSpec) — historically each runner checked a different subset
// with ad-hoc fmt.Errorf strings.

// validateCatalog rejects catalogs that cannot host a tenant. A nil
// catalog is legal at the spec level (it selects the runner's catalog, or
// the default lock-step catalog); the resolved catalog is checked again at
// run time via requireCatalog.
func validateCatalog(cat *resource.Catalog) error {
	if cat != nil && cat.LadderLen() == 0 {
		return invalidSpec("catalog has an empty container ladder")
	}
	return nil
}

// requireCatalog is the post-resolution check: by the time a run starts,
// the catalog must exist and be non-empty.
func requireCatalog(cat *resource.Catalog) error {
	if cat == nil {
		return invalidSpec("catalog is nil")
	}
	return validateCatalog(cat)
}

// validateFaults rejects malformed fault plans (rates outside [0, 1] or
// NaN), wrapping the package's error in the uniform ErrInvalidSpec.
func validateFaults(p faults.Plan) error {
	if err := p.Validate(); err != nil {
		return invalidSpec("fault plan: %v", err)
	}
	return nil
}

// validateActuation rejects malformed actuation configs (rates outside
// [0, 1] or NaN, negative interval counts), wrapping the package's error
// in the uniform ErrInvalidSpec.
func validateActuation(cfg actuate.Config) error {
	if err := cfg.Validate(); err != nil {
		return invalidSpec("actuation config: %v", err)
	}
	return nil
}

// Validate checks a single-run spec. The zero interval count (an empty
// trace) is rejected here, before an engine is built.
func (s Spec) Validate() error {
	switch {
	case s.Workload == nil:
		return invalidSpec("Workload is required")
	case s.Trace == nil:
		return invalidSpec("Trace is required")
	case s.Trace.Len() <= 0:
		return invalidSpec("trace %q has zero intervals", s.Trace.Name)
	case s.Policy == nil:
		return invalidSpec("Policy is required")
	case s.Jitter < 0:
		return invalidSpec("Jitter must be ≥ 0, got %v", s.Jitter)
	case s.GoalMs < 0:
		return invalidSpec("GoalMs must be ≥ 0, got %v", s.GoalMs)
	}
	if err := validateFaults(s.Faults); err != nil {
		return err
	}
	return validateActuation(s.Actuation)
}

// Validate checks a six-policy comparison spec.
func (cs ComparisonSpec) Validate() error {
	switch {
	case cs.Workload == nil:
		return invalidSpec("Workload is required")
	case cs.Trace == nil:
		return invalidSpec("Trace is required")
	case cs.Trace.Len() <= 0:
		return invalidSpec("trace %q has zero intervals", cs.Trace.Name)
	case cs.GoalFactor <= 1:
		return invalidSpec("GoalFactor must exceed 1, got %v", cs.GoalFactor)
	}
	if err := validateFaults(cs.Faults); err != nil {
		return err
	}
	if err := validateActuation(cs.Actuation); err != nil {
		return err
	}
	return validateCatalog(cs.Catalog)
}

// Validate checks a multi-tenant cluster spec.
func (spec MultiTenantSpec) Validate() error {
	if err := validateCatalog(spec.Catalog); err != nil {
		return err
	}
	if spec.Servers < 0 {
		return invalidSpec("Servers must be ≥ 0, got %d", spec.Servers)
	}
	if len(spec.Tenants) == 0 {
		return invalidSpec("at least one tenant required")
	}
	ids := make(map[string]bool, len(spec.Tenants))
	for i, ts := range spec.Tenants {
		switch {
		case ts.Workload == nil || ts.Trace == nil:
			return invalidSpec("tenant %q (index %d) needs a workload and a trace", ts.ID, i)
		case ts.Trace.Len() <= 0:
			return invalidSpec("tenant %q has a zero-interval trace", ts.ID)
		case ts.GoalMs < 0:
			return invalidSpec("tenant %q GoalMs must be ≥ 0, got %v", ts.ID, ts.GoalMs)
		case ids[ts.ID]:
			return invalidSpec("duplicate tenant ID %q", ts.ID)
		}
		ids[ts.ID] = true
	}
	if spec.RebalanceEvery < 0 {
		return invalidSpec("RebalanceEvery must be ≥ 0, got %d", spec.RebalanceEvery)
	}
	if err := spec.Contention.Validate(); err != nil {
		return invalidSpec("%v", err)
	}
	if err := validateFaults(spec.Faults); err != nil {
		return err
	}
	return validateActuation(spec.Actuation)
}

// Validate checks a Figure 14 ballooning spec.
func (spec BallooningSpec) Validate() error {
	switch {
	case spec.Intervals < 0:
		return invalidSpec("Intervals must be ≥ 0, got %d", spec.Intervals)
	case spec.ShrinkAt < 0:
		return invalidSpec("ShrinkAt must be ≥ 0, got %d", spec.ShrinkAt)
	case spec.RPS < 0:
		return invalidSpec("RPS must be ≥ 0, got %v", spec.RPS)
	case spec.Intervals > 0 && spec.ShrinkAt >= spec.Intervals:
		return invalidSpec("ShrinkAt %d is past the end of the run (%d intervals)", spec.ShrinkAt, spec.Intervals)
	}
	if err := validateFaults(spec.Faults); err != nil {
		return err
	}
	return validateActuation(spec.Actuation)
}
