package sim

import (
	"context"
	"fmt"

	"daasscale/internal/actuate"
	"daasscale/internal/budget"
	"daasscale/internal/core"
	"daasscale/internal/exec"
	"daasscale/internal/faults"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
)

// Runner is the single entry point to every simulation in this package:
// single runs, policy sweeps, six-policy comparisons, multi-tenant cluster
// replays and the ballooning experiment. It carries the cross-cutting
// configuration the old Spec/ComparisonSpec/MultiTenantSpec/BallooningSpec
// free functions each re-declared — the default seed and the fault and
// actuation plans — plus the execution machinery the free functions never had:
// a worker pool that fans per-tenant work across WithParallelism workers,
// context cancellation on every path, and a progress/metrics hook.
//
// A Runner is immutable after construction and safe for concurrent use.
// Parallel runs are bit-identical to serial runs of the same seed: all
// per-tenant randomness is derived with exec.SplitSeed, and results are
// collected into index-addressed slots.
type Runner struct {
	seed        int64
	seedSet     bool
	parallelism int
	progress    func(exec.Progress)
	faults      faults.Plan
	actuation   actuate.Config
	phaseLabels bool
}

// Option configures a Runner.
type Option func(*Runner)

// WithSeed sets the default seed applied to specs whose Seed is zero.
func WithSeed(seed int64) Option {
	return func(r *Runner) { r.seed, r.seedSet = seed, true }
}

// WithParallelism sets the worker-pool width for fleet-scale paths
// (comparisons, sweeps, multi-tenant runs). Values ≤ 0 select
// runtime.GOMAXPROCS. Parallelism never changes results, only wall time.
func WithParallelism(n int) Option {
	return func(r *Runner) { r.parallelism = n }
}

// WithProgress installs a metrics hook invoked while fleet-scale work is in
// flight (tenants/sec, per-tenant p50/p95 wall time, worker utilization).
// The hook may be called concurrently from several workers.
func WithProgress(fn func(exec.Progress)) Option {
	return func(r *Runner) { r.progress = fn }
}

// WithFaults sets the deterministic fault plan applied to the telemetry
// channel of every run whose spec declares no plan of its own — chaos mode
// for every experiment the runner executes. Faults perturb only what the
// policies observe, never the engine itself, and parallel chaos runs stay
// bit-identical to serial ones (the per-interval fault streams are derived
// with exec.SplitSeed, not drawn from a shared sequence).
func WithFaults(p faults.Plan) Option {
	return func(r *Runner) { r.faults = p }
}

// WithActuation sets the resize-actuation config applied to every run
// whose spec declares none of its own — the decision→engine channel gets
// actuation latency, injected throttles/failures, retry with backoff,
// deadlines and desired-state reconciliation (see package actuate). Like
// WithFaults, the chaos is seed-deterministic: parallel runs stay
// bit-identical to serial ones, and offline goal derivation stays
// synchronous so actuated and clean comparisons share the same goal.
func WithActuation(cfg actuate.Config) Option {
	return func(r *Runner) { r.actuation = cfg }
}

// WithPhaseLabels annotates the cluster runner's phases with runtime/pprof
// labels (`phase=ticks+decide`, `phase=apply`, `phase=finalize`) so CPU
// profiles can attribute samples per phase (`go tool pprof -tagfocus
// phase=apply`).
// Off by default: pprof.Do allocates on every call, which the hot path
// must not pay when nobody is profiling.
func WithPhaseLabels() Option {
	return func(r *Runner) { r.phaseLabels = true }
}

// NewRunner builds a Runner from functional options. The zero-option
// Runner uses every available core on fleet-scale paths.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{}
	for _, o := range opts {
		o(r)
	}
	return r
}

// --- default resolution ----------------------------------------------------

// orLockStep is cat, or the lock-step catalog when a spec leaves it nil.
func orLockStep(cat *resource.Catalog) *resource.Catalog {
	if cat != nil {
		return cat
	}
	return resource.LockStepCatalog()
}

func (r *Runner) resolveSeed(seed int64) int64 {
	if seed == 0 && r.seedSet {
		return r.seed
	}
	return seed
}

// newPool builds the per-run worker pool. Each top-level run gets its own
// pool so concurrent runs of one Runner do not share metrics.
func (r *Runner) newPool() *exec.Pool {
	return exec.NewPool(exec.Options{Workers: r.parallelism, OnProgress: r.progress})
}

// applyDefaults fills a single-run spec from the runner's options.
func (r *Runner) applyDefaults(spec Spec) Spec {
	spec.Seed = r.resolveSeed(spec.Seed)
	// Only a fully-zero plan takes the runner default: a non-zero but
	// disabled plan may be malformed (e.g. a NaN rate) and must reach
	// Validate rather than be silently replaced.
	if spec.Faults == (faults.Plan{}) {
		spec.Faults = r.faults
	}
	if spec.Actuation == (actuate.Config{}) {
		spec.Actuation = r.actuation
	}
	return spec
}

// --- run methods -----------------------------------------------------------

// Run executes one experiment. The context is checked every billing
// interval; cancellation returns a wrapped ErrCanceled.
func (r *Runner) Run(ctx context.Context, spec Spec) (Result, error) {
	spec = r.applyDefaults(spec)
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	return runSpec(ctx, spec)
}

// RunComparison executes the full six-policy experiment of the paper's
// evaluation. The Max run comes first (the offline baselines are derived
// from it); the five remaining policies then replay the identical offered
// load in parallel across the pool. Results are ordered Max, Peak, Avg,
// Trace, Util, Auto — identical to the serial runner, bit for bit.
//
// In chaos mode (a Faults plan on the spec or the runner) the fault plan
// perturbs the telemetry channel of the five policy runs; the Max run that
// derives the offline baselines and the latency goal stays clean, so clean
// and chaos comparisons share the same goal and are directly comparable.
// An Actuation config follows the same rule: it governs the resize channel
// of the five policy runs while the offline Max derivation stays
// synchronous.
func (r *Runner) RunComparison(ctx context.Context, cs ComparisonSpec) (Comparison, error) {
	cs.Catalog = orLockStep(cs.Catalog)
	cs.Seed = r.resolveSeed(cs.Seed)
	if cs.Faults == (faults.Plan{}) {
		cs.Faults = r.faults
	}
	if cs.Actuation == (actuate.Config{}) {
		cs.Actuation = r.actuation
	}
	if err := cs.Validate(); err != nil {
		return Comparison{}, err
	}
	cat := cs.Catalog
	// Databases are measured warmed up, as in the paper's runs; without
	// this every online policy pays an artificial cold-start I/O storm.
	cs.EngineOpts.WarmStart = true
	off, err := deriveOffline(ctx, cat, cs.Workload, cs.Trace, cs.Seed, cs.EngineOpts)
	if err != nil {
		return Comparison{}, err
	}
	goal := cs.GoalFactor * off.MaxResult.P95Ms
	comp := Comparison{GoalMs: goal}
	maxRes := off.MaxResult
	maxRes.GoalMs = goal
	comp.Results = append(comp.Results, maxRes)

	// The five online/offline policies are independent given the derived
	// baselines: fan them out.
	oracle, err := policy.NewTraceOracle(off.Schedule)
	if err != nil {
		return Comparison{}, err
	}
	util, err := policy.NewUtil(cat, cat.Smallest(), policy.DefaultUtilConfig(goal))
	if err != nil {
		return Comparison{}, err
	}
	scaler, err := core.New(core.Config{
		Catalog:           cat,
		Initial:           cat.Smallest(),
		Goal:              core.LatencyGoal{Kind: core.GoalP95, Ms: goal},
		Budget:            cs.AutoBudget,
		Sensitivity:       cs.Sensitivity,
		Thresholds:        cs.Thresholds,
		DisableBallooning: cs.DisableBallooning,
	})
	if err != nil {
		return Comparison{}, err
	}
	policies := []policy.Policy{
		policy.NewStatic("Peak", off.Peak),
		policy.NewStatic("Avg", off.Avg),
		oracle,
		util,
		policy.NewAuto(scaler),
	}
	pool := r.newPool()
	results, err := execMapPool(ctx, pool, len(policies), func(ctx context.Context, i int) (Result, error) {
		res, err := runSpec(ctx, Spec{
			Workload:   cs.Workload,
			Trace:      cs.Trace,
			Policy:     policies[i],
			Seed:       cs.Seed,
			EngineOpts: cs.EngineOpts,
			GoalMs:     goal,
			Faults:     cs.Faults,
			Actuation:  cs.Actuation,
			Audit:      cs.Audit,
		})
		if err != nil {
			return Result{}, fmt.Errorf("sim: policy %s: %w", policies[i].Name(), err)
		}
		return res, nil
	})
	if err != nil {
		return Comparison{}, wrapCanceled(err)
	}
	comp.Results = append(comp.Results, results...)
	return comp, nil
}

// RunBallooning reproduces Figure 14: a CPUIO workload with a ≈3GB working
// set under steady demand, where low memory demand has been (incorrectly)
// estimated. Without ballooning, memory drops to the next smaller container
// at once: the working set no longer fits, disk I/O and latency explode
// (≈2 orders of magnitude), the system reverts, and the slow cache re-warm
// prolongs the damage. With ballooning, memory shrinks gradually and the
// probe aborts as soon as I/O rises — near the working set — with minimal
// latency impact. The two arms are independent simulations and run
// concurrently.
func (r *Runner) RunBallooning(ctx context.Context, spec BallooningSpec) (BallooningResult, error) {
	spec.Seed = r.resolveSeed(spec.Seed)
	if spec.Faults == (faults.Plan{}) {
		spec.Faults = r.faults
	}
	if spec.Actuation == (actuate.Config{}) {
		spec.Actuation = r.actuation
	}
	if err := spec.Validate(); err != nil {
		return BallooningResult{}, err
	}
	return runBallooning(ctx, spec, r.newPool())
}

// RunMultiTenant executes the cluster simulation. Each tenant gets its own
// engine (the container abstraction isolates tenants from each other) and
// its own auto-scaler; all resizes flow through the shared fabric, which
// may migrate tenants between servers or refuse a resize outright when the
// cluster has no room — in which case the tenant keeps its container and
// the controller reconciles.
//
// Within every billing interval the per-tenant work — the engine ticks,
// the telemetry signals and the scaling decision — fans out across the
// pool; the fabric operations that couple tenants then apply serially in
// tenant order, which keeps the outcome bit-identical to a serial run at
// any worker count. Measured on the benchmark's cluster_contended
// workload, engine.TickBatch is about half of the parallel phase's CPU
// and a third of the run's wall time, so wall-clock does not scale
// linearly with workers.
func (r *Runner) RunMultiTenant(ctx context.Context, spec MultiTenantSpec) (MultiTenantResult, error) {
	spec.Catalog = orLockStep(spec.Catalog)
	if spec.Faults == (faults.Plan{}) {
		spec.Faults = r.faults
	}
	if spec.Actuation == (actuate.Config{}) {
		spec.Actuation = r.actuation
	}
	if err := spec.Validate(); err != nil {
		return MultiTenantResult{}, err
	}
	return runMultiTenant(ctx, spec, r.newPool(), r.phaseLabels)
}

// execMapPool fans task out across pool and collects the results in index
// order — the parallel equivalent of a deterministic serial loop. Exactly
// one result slot is allocated per task.
func execMapPool[T any](ctx context.Context, pool *exec.Pool, n int, task func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := pool.Run(ctx, n, func(ctx context.Context, i int) error {
		v, err := task(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, wrapCanceled(err)
	}
	return out, nil
}

// autoScalerFor builds the demand-driven controller used for a tenant.
func autoScalerFor(cat *resource.Catalog, goalMs float64, bud *budget.Manager) (*core.AutoScaler, error) {
	goal := core.LatencyGoal{}
	if goalMs > 0 {
		goal = core.LatencyGoal{Kind: core.GoalP95, Ms: goalMs}
	}
	return core.New(core.Config{Catalog: cat, Initial: cat.Smallest(), Goal: goal, Budget: bud})
}
