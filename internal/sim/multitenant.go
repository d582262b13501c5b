package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"

	"daasscale/internal/actuate"
	"daasscale/internal/core"
	"daasscale/internal/engine"
	"daasscale/internal/exec"
	"daasscale/internal/fabric"
	"daasscale/internal/faults"
	"daasscale/internal/loop"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// TenantSpec describes one tenant in a multi-tenant cluster run.
type TenantSpec struct {
	// ID names the tenant in the fabric.
	ID string
	// Workload and Trace drive the tenant's engine. Required.
	Workload *workload.Workload
	Trace    *trace.Trace
	// GoalMs is the tenant's p95 latency goal (0 = demand-driven only).
	GoalMs float64
	// Seed makes the tenant's run reproducible. When zero, a tenant seed is
	// derived deterministically from the cluster Seed and the tenant ID
	// (exec.SplitSeedString), so large fleets need not enumerate seeds.
	Seed int64
}

// TenantResult summarizes one tenant of a multi-tenant run.
type TenantResult struct {
	ID                 string
	TotalCost          float64
	AvgCostPerInterval float64
	P95Ms              float64
	Changes            int
	// RefusedResizes counts resize attempts the fabric could not place;
	// the tenant kept its container for those. On the actuated path each
	// refused attempt counts (the actuator retries refusals).
	RefusedResizes int
	// Migrations counts resizes the fabric executed by moving this tenant
	// to another server.
	Migrations int
	// RebalanceMigrations counts moves of this tenant the placement
	// optimizer planned and the fabric executed (a subset of the fabric's
	// total migration count; each lands with a cold cache).
	RebalanceMigrations int
	// Actuation reports the tenant's actuation-channel counters
	// (all-zero on the synchronous path).
	Actuation actuate.Stats
	// Audit is the tenant's per-interval decision-audit trail (only
	// collected when the spec asked for it).
	Audit []loop.DecisionRecord
}

// NodeStats is one server's end-of-run state: who it hosts, how full each
// resource dimension is, and how contended its shared channels are.
type NodeStats struct {
	// Node is the server's cluster index.
	Node int
	// Tenants is the number of hosted tenants.
	Tenants int
	// Utilization is the allocated fraction of each resource dimension.
	Utilization resource.Vector
	// Pressure is the shared-channel pressure (demand over effective
	// shared capacity; above 1 the residents interfere).
	Pressure fabric.Pressure
	// Inflation is the per-channel wait-inflation multiplier residents
	// run under (all-ones when the interference model is off).
	Inflation fabric.Inflation
}

// MultiTenantResult is the outcome of a cluster run.
type MultiTenantResult struct {
	Tenants []TenantResult
	// Migrations and Refusals are the fabric's totals.
	Migrations int
	Refusals   int
	// RebalanceMigrations is the cluster total of optimizer-planned moves
	// the fabric executed (also included in Migrations).
	RebalanceMigrations int
	// PeakClusterCPUFrac is the highest CPU allocation fraction any server
	// reached.
	PeakClusterCPUFrac float64
	// PeakWaitInflation is the highest dominant wait-inflation multiplier
	// any node imposed during the run (1 when never contended, 0 on runs
	// predating the contention stamp).
	PeakWaitInflation float64
	// Nodes is the per-server end-of-run report.
	Nodes []NodeStats
}

// MultiTenantSpec describes a cluster of auto-scaled tenants sharing a
// fixed set of database servers through the management fabric — the
// paper's Figure 3 deployment: each server hosts a set of containers, the
// fabric decides co-location, and every resize the auto-scaling logic
// recommends is executed (or refused) by the fabric.
type MultiTenantSpec struct {
	// Catalog of containers (nil → default lock-step catalog).
	Catalog *resource.Catalog
	// Tenants to host. Required, non-empty, with unique IDs.
	Tenants []TenantSpec
	// Servers is the cluster size (0 → enough servers for one largest
	// container per two tenants, at least one).
	Servers int
	// Policy is the fabric's placement policy.
	Policy fabric.PlacementPolicy
	// EngineOpts tunes the substrate.
	EngineOpts engine.Options
	// Seed is the cluster-level base seed from which tenants with a zero
	// Seed derive theirs (split by tenant ID).
	Seed int64
	// Faults is the deterministic fault plan applied to each tenant's
	// telemetry channel (zero value = clean). Every tenant gets its own
	// fault stream, derived from its tenant seed, so fault timing is
	// independent across tenants yet bit-identical at any worker count.
	Faults faults.Plan
	// Actuation configures each tenant's decision→fabric channel (zero
	// value = synchronous). When enabled, every resize the tenant's
	// auto-scaler decides becomes an asynchronous operation routed
	// through the shared fabric: refusals retry with backoff, stale
	// resizes are superseded, and the per-tenant streams derive from the
	// tenant seeds, so chaos runs stay bit-identical at any worker count.
	Actuation actuate.Config
	// Contention installs the noisy-neighbor interference model on the
	// fabric (zero value = off: the historical additive model, bit-exact).
	// When enabled, each node's shared-channel overcommit inflates its
	// residents' waits through engine.SetContention; the multipliers are
	// recomputed in the serial apply phase from the fabric's exact
	// allocation sums, so runs stay bit-identical at any worker count.
	Contention fabric.Contention
	// RebalanceEvery, when > 0, runs the goal-preserving placement
	// optimizer every that many intervals: fabric.Rebalance plans moves
	// that bring every tenant's predicted p95 back within goal, and the
	// runner executes them — through each tenant's migration actuation
	// channel when Actuation is enabled (failable, retried, charged a cold
	// cache on landing), synchronously otherwise.
	RebalanceEvery int
	// RebalancePack additionally runs fabric.Optimize when no goal is
	// violated, consolidating tenants onto fewer nodes.
	RebalancePack bool
	// Audit, when true, collects each tenant's loop.DecisionRecords into
	// TenantResult.Audit.
	Audit bool
	// Recorder, when set, receives every tenant's audit stream. Records
	// are emitted by the serial apply phase — interval by interval, tenant
	// order within an interval — so a shared Recorder needs no locking
	// even though decisions themselves are computed in parallel.
	Recorder loop.Recorder
}

// fabricApplier lands a tenant's resizes on the shared fabric: a refusal
// surfaces as actuate.ErrRefused (the loop reconciles on the synchronous
// path, the actuator retries with backoff on the actuated one), a
// migration and a refusal are tallied on the tenant's result, and a
// successful resize reaches the tenant's engine.
type fabricApplier struct {
	fab *fabric.Fabric
	eng *engine.Engine
	id  string
	res *TenantResult
}

// Apply implements loop.Applier.
func (a *fabricApplier) Apply(c resource.Container) error {
	migrated, err := a.fab.Resize(a.id, c)
	if errors.Is(err, fabric.ErrRefused) {
		a.res.RefusedResizes++
		return fmt.Errorf("%w: %v", actuate.ErrRefused, err)
	}
	if err != nil {
		// A non-refusal fabric fault (e.g. an unplaced tenant) is a bug,
		// not an outcome — surface it instead of miscounting it as a
		// refusal.
		return err
	}
	a.eng.SetContainer(c)
	if migrated {
		a.res.Migrations++
	}
	return nil
}

// Actual implements loop.Applier. The engine's container is the fabric's
// record of the tenant: both change only together, on placement and on a
// successful resize.
func (a *fabricApplier) Actual() resource.Container { return a.eng.Container() }

// scalerReconciler re-anchors the tenant's controller to the substrate
// (the reconcile the synchronous path does on refusal and the actuated
// path does every step).
type scalerReconciler struct{ scaler *core.AutoScaler }

// ForceActual implements loop.Reconciler.
func (r scalerReconciler) ForceActual(c resource.Container) { r.scaler.ForceContainer(c) }

// migTarget is the migration actuator's desired state: a planned
// destination plus a per-tenant sequence number, so each planned move is
// a fresh desired-state write (re-planning the same destination after an
// external migration moved the tenant away still opens an operation).
type migTarget struct {
	seq int
	dst int
}

// tenantState is one tenant's private simulation state. During the tick
// phase workers touch only their own tenantState (index-addressed), which
// is what makes the fan-out race-free and deterministic.
type tenantState struct {
	spec TenantSpec
	eng  *engine.Engine
	lp   *loop.TenantLoop[resource.Container]
	res  TenantResult
	col  *loop.Collector

	// mig is the tenant's migration actuation channel (nil when the run
	// is synchronous or never rebalances); migSeq numbers its submissions.
	mig    *actuate.Actuator[migTarget]
	migSeq int
	// activeScalar is the dominant wait-inflation multiplier the tenant's
	// engine ran under while the last snapshot was measured — the divisor
	// that recovers the contention-free p95 baseline the optimizer needs.
	activeScalar float64
}

// runMultiTenant is the context-aware, pool-parallel implementation behind
// Runner.RunMultiTenant. The spec must already be validated and resolved.
//
// The interval loop is split into two phases, matching TenantLoop's
// RunTicks / Decide / Apply split. Phase 1 — the engine ticks, the
// interval snapshot AND the scaling decision — fans across the pool:
// ticking touches only the tenant's own engine, and a tenant's decision
// reads only its own state (its snapshot, its decider, its fault
// injector's private stream, and its own substrate record through
// Applier.Actual), so decisions are order-independent across tenants.
// Phase 2 — the applies, which resize through the shared fabric and whose
// placement outcomes therefore depend on who asked first — runs serially
// in tenant order, exactly as the historical serial loop ordered it.
// Because a tenant's ticks and decision depend only on its own state and
// its own previous apply, the schedule produces bit-identical results to
// the serial interleaving at any worker count (the golden equivalence
// suite and the worker-count chaos tests pin this).
//
// labels wraps each phase in runtime/pprof labels so CPU profiles can be
// split per phase.
func runMultiTenant(ctx context.Context, spec MultiTenantSpec, pool *exec.Pool, labels bool) (MultiTenantResult, error) {
	cat := spec.Catalog
	servers := spec.Servers
	if servers == 0 {
		servers = (len(spec.Tenants) + 1) / 2
	}
	fab, err := fabric.New(servers, cat.Largest().Alloc, spec.Policy)
	if err != nil {
		return MultiTenantResult{}, err
	}
	if err := fab.SetContention(spec.Contention); err != nil {
		return MultiTenantResult{}, err
	}
	contentionOn := spec.Contention.Enabled()
	rebalanceOn := spec.RebalanceEvery > 0
	actuated := spec.Actuation.Enabled()

	// Build the per-tenant states in parallel: engine construction warms
	// buffer pools and is itself per-tenant work. Placement happens
	// serially afterwards — the fabric is shared state.
	intervals := 0
	for _, ts := range spec.Tenants {
		if ts.Trace.Len() > intervals {
			intervals = ts.Trace.Len()
		}
	}
	states, err := execMapPool(ctx, pool, len(spec.Tenants), func(ctx context.Context, i int) (*tenantState, error) {
		ts := spec.Tenants[i]
		if ts.Seed == 0 {
			ts.Seed = exec.SplitSeedString(spec.Seed, ts.ID)
		}
		scaler, err := autoScalerFor(cat, ts.GoalMs, nil)
		if err != nil {
			return nil, err
		}
		eng, err := engine.New(ts.Workload, scaler.Container(), ts.Seed, spec.EngineOpts)
		if err != nil {
			return nil, err
		}
		st := &tenantState{spec: ts, eng: eng, res: TenantResult{ID: ts.ID}, activeScalar: 1}
		rec, col := specRecorder(spec.Audit, spec.Recorder)
		st.col = col
		st.lp = loop.New(loop.Config[resource.Container]{
			ID:               ts.ID,
			Engine:           eng,
			Seed:             ts.Seed,
			Jitter:           0.1,
			Decider:          loop.NewPolicyDecider(policy.NewAuto(scaler), eng),
			Applier:          &fabricApplier{fab: fab, eng: eng, id: ts.ID, res: &st.res},
			Reconciler:       scalerReconciler{scaler},
			Faults:           spec.Faults,
			Actuation:        spec.Actuation,
			Recorder:         rec,
			Describe:         loop.DescribeContainer,
			SetMemoryTarget:  true,
			CollectLatencies: true,
			// Idle tenants (trace ended) record no samples, so this is an
			// upper bound; it turns a run's worth of sample collection into
			// one allocation per tenant.
			SampleCapacityHint: intervals * eng.TicksPerInterval() * engine.MaxLatencySamplesPerTick,
		})
		return st, nil
	})
	if err != nil {
		return MultiTenantResult{}, err
	}
	byID := make(map[string]*tenantState, len(states))
	for _, st := range states {
		if err := fab.Place(st.spec.ID, st.eng.Container()); err != nil {
			return MultiTenantResult{}, fmt.Errorf("sim: placing tenant %q: %w", st.spec.ID, err)
		}
		byID[st.spec.ID] = st
	}
	if rebalanceOn && actuated {
		// Each tenant gets a private migration actuation channel, its
		// stream split from the tenant seed by a salt of its own, so
		// resize and migration chaos stay decorrelated and runs stay
		// bit-identical at any worker count.
		for _, st := range states {
			node := 0
			if s, ok := fab.ServerOf(st.spec.ID); ok {
				node = s.ID
			}
			st.mig = actuate.New(spec.Actuation,
				exec.SplitSeed(st.spec.Seed, loop.MigrationStreamSalt), migTarget{dst: node})
		}
	}

	out := MultiTenantResult{}
	// installContention recomputes every node's shared-channel pressure
	// from the fabric's exact allocation sums and installs the resulting
	// wait-inflation multipliers on every resident's engine and loop. It
	// runs in the serial phase — after the applies (and any migrations)
	// have settled the placement — so the multipliers the next parallel
	// tick phase reads are a pure function of run state, never of worker
	// count. The loop stamp also feeds the interval's DecisionRecords: a
	// record carries the interference that was active while its interval's
	// engine work ran.
	installContention := func() {
		for _, st := range states {
			inf, node, ok := fab.TenantInflation(st.spec.ID)
			if !ok {
				continue
			}
			st.lp.SetNodeContention(node, fab.ServerPressure(node), inf)
			if mx := inf.Max(); mx > out.PeakWaitInflation {
				out.PeakWaitInflation = mx
			}
			if contentionOn {
				st.eng.SetContention(engine.Contention{
					CPU:    inf[fabric.ChannelCPUCache],
					Memory: inf[fabric.ChannelBufferPool],
					LogIO:  inf[fabric.ChannelLogDevice],
				})
				st.activeScalar = inf.Max()
			}
		}
	}
	installContention()

	// The pprof label sets are built once per run: pprof.Do itself
	// allocates per call, which is why labelling is opt-in at all.
	var ticksLabels, applyLabels, finalizeLabels pprof.LabelSet
	if labels {
		ticksLabels = pprof.Labels("phase", "ticks+decide")
		applyLabels = pprof.Labels("phase", "apply")
		finalizeLabels = pprof.Labels("phase", "finalize")
	}

	for m := 0; m < intervals; m++ {
		if err := checkCtx(ctx); err != nil {
			return MultiTenantResult{}, fmt.Errorf("sim: cluster interval %d: %w", m, err)
		}
		// Phase 1: every tenant's billing interval — engine ticks plus the
		// tenant-local scaling decision — fanned across workers.
		err := pool.Run(ctx, len(states), func(_ context.Context, i int) error {
			st := states[i]
			target := st.spec.Trace.At(m)
			if m >= st.spec.Trace.Len() {
				target = 0 // this tenant's trace ended; it idles
			}
			inPhase(ctx, labels, ticksLabels, func() {
				st.lp.RunTicks(target)
				st.lp.Decide(m)
			})
			return nil
		})
		if err != nil {
			return MultiTenantResult{}, wrapCanceled(err)
		}
		// Phase 2: the applies through the shared fabric, serial in tenant
		// order (the fabric's placement state makes the order load-bearing).
		// Records reach a shared Recorder from here, so it needs no locking.
		apply := func() error {
			for _, st := range states {
				if err := st.lp.Apply(m); err != nil {
					return fmt.Errorf("sim: interval %d: resizing tenant %q: %w", m, st.spec.ID, err)
				}
			}
			return nil
		}
		inPhase(ctx, labels, applyLabels, func() { err = apply() })
		if err != nil {
			return MultiTenantResult{}, err
		}
		// Phase 2 continues serially: drive the migration actuators, plan
		// and execute rebalance moves, then recompute node contention for
		// the next interval's ticks. All of it reads the shared fabric, so
		// it stays in the serial phase — in tenant order, deterministic.
		if rebalanceOn {
			if actuated {
				for _, st := range states {
					if err := st.stepMigration(m, fab); err != nil {
						return MultiTenantResult{}, fmt.Errorf("sim: interval %d: migrating tenant %q: %w", m, st.spec.ID, err)
					}
				}
			}
			if (m+1)%spec.RebalanceEvery == 0 {
				if err := rebalanceCluster(spec, fab, states, byID); err != nil {
					return MultiTenantResult{}, fmt.Errorf("sim: interval %d: %w", m, err)
				}
			}
		}
		installContention()
		for _, u := range fab.Utilization() {
			if u > out.PeakClusterCPUFrac {
				out.PeakClusterCPUFrac = u
			}
		}
		if err := fab.Validate(); err != nil {
			return MultiTenantResult{}, fmt.Errorf("sim: interval %d: %w", m, err)
		}
	}
	// Finalisation fans out too: a tenant's totals read only its own loop
	// (samples, injector, actuator) and land in tenant order. The workers
	// start inside the pool's Run, so they inherit the phase label.
	var totals []loop.Totals
	inPhase(ctx, labels, finalizeLabels, func() {
		totals, err = execMapPool(ctx, pool, len(states), func(_ context.Context, i int) (loop.Totals, error) {
			return states[i].lp.Finalize(intervals), nil
		})
	})
	if err != nil {
		return MultiTenantResult{}, fmt.Errorf("sim: cluster finalize: %w", err)
	}
	for i, st := range states {
		tot := totals[i]
		st.res.TotalCost = tot.TotalCost
		st.res.AvgCostPerInterval = tot.AvgCostPerInterval
		st.res.P95Ms = tot.P95Ms
		st.res.Changes = tot.Changes
		st.res.Actuation = tot.Actuation
		if st.col != nil {
			st.res.Audit = st.col.Records
		}
		out.Tenants = append(out.Tenants, st.res)
	}
	out.Migrations = fab.Migrations()
	out.Refusals = fab.Refusals()
	for _, st := range states {
		out.RebalanceMigrations += st.res.RebalanceMigrations
	}
	util := fab.UtilizationByResource()
	for i, s := range fab.Servers() {
		out.Nodes = append(out.Nodes, NodeStats{
			Node:        s.ID,
			Tenants:     s.TenantCount(),
			Utilization: util[i],
			Pressure:    fab.ServerPressure(i),
			Inflation:   fab.ServerInflation(i),
		})
	}
	return out, nil
}

// stepMigration drives the tenant's migration actuation channel one
// interval: an open move lands on the fabric (refusals are re-wrapped so
// the actuator retries with backoff), and a landing charges the engine a
// cold cache — the latency cost that makes migrations non-free.
func (st *tenantState) stepMigration(interval int, fab *fabric.Fabric) error {
	return st.mig.Step(interval, func(t migTarget) error {
		if s, ok := fab.ServerOf(st.spec.ID); ok && s.ID == t.dst {
			// Already there — e.g. a resize-path migration landed us on the
			// planned destination first. Nothing to do, nothing to charge.
			return nil
		}
		if err := fab.Migrate(st.spec.ID, t.dst); err != nil {
			if errors.Is(err, fabric.ErrRefused) {
				return fmt.Errorf("%w: %v", actuate.ErrRefused, err)
			}
			return err
		}
		st.eng.MigrateRestart()
		st.res.RebalanceMigrations++
		return nil
	})
}

// inPhase runs f, under the pprof label set when labels is on.
func inPhase(ctx context.Context, labels bool, set pprof.LabelSet, f func()) {
	if labels {
		pprof.Do(ctx, set, func(context.Context) { f() })
		return
	}
	f()
}

// rebalanceCluster plans goal-preserving moves against the fabric's
// current placement and executes them — as desired-state writes to each
// tenant's migration actuator when the run is actuated, synchronously
// otherwise. Baselines divide the inflation active at measurement time
// out of the last observed p95, so the optimizer reasons in
// contention-free terms and its predictions compose with any destination
// node's inflation.
func rebalanceCluster(spec MultiTenantSpec, fab *fabric.Fabric, states []*tenantState, byID map[string]*tenantState) error {
	goals := make([]fabric.TenantGoal, 0, len(states))
	for _, st := range states {
		g := fabric.TenantGoal{ID: st.spec.ID, GoalMs: st.spec.GoalMs}
		if p95 := st.lp.Snapshot().P95LatencyMs; p95 > 0 && st.activeScalar > 0 {
			g.BaselineP95Ms = p95 / st.activeScalar
		}
		goals = append(goals, g)
	}
	plan := fab.Rebalance(goals)
	if spec.RebalancePack && len(plan.Moves) == 0 {
		// Nothing violated: consolidate instead.
		plan = fab.Optimize(goals)
	}
	actuated := spec.Actuation.Enabled()
	for _, mv := range plan.Moves {
		st := byID[mv.Tenant]
		if actuated {
			if !st.mig.Settled() {
				// A previous move is still in flight; the next planning
				// round sees wherever it landed.
				continue
			}
			st.migSeq++
			st.mig.Submit(migTarget{seq: st.migSeq, dst: mv.To})
			continue
		}
		// Synchronous path: the move lands now. A refusal means the plan
		// raced nothing (this phase is serial) but a capacity edge the
		// planner's scratch model and the fabric disagree on — skip it; the
		// next round re-plans from reality.
		err := fab.Migrate(mv.Tenant, mv.To)
		switch {
		case errors.Is(err, fabric.ErrRefused):
		case err != nil:
			return fmt.Errorf("rebalancing tenant %q: %w", mv.Tenant, err)
		default:
			st.eng.MigrateRestart()
			st.res.RebalanceMigrations++
		}
	}
	return nil
}
