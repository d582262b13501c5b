package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"daasscale/internal/engine"
	"daasscale/internal/exec"
	"daasscale/internal/fabric"
	"daasscale/internal/loop"
	"daasscale/internal/resource"
	"daasscale/internal/sim"
	"daasscale/internal/stats"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// clusterWorkers is the simulator's worker count on cluster_contended.
const clusterWorkers = 2

// clusterInputs are the generated inputs of one cluster run: per tenant a
// workload family, a trace and a tenant seed, all drawn from -seed here so
// that the simulator never sees it.
type clusterInputs struct {
	cfg   *config
	seeds []int64
}

func newClusterInputs(cfg *config) *clusterInputs {
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &clusterInputs{cfg: cfg, seeds: make([]int64, cfg.clusterTenants)}
	for i := range in.seeds {
		in.seeds[i] = rng.Int63()
	}
	return in
}

func (in *clusterInputs) workload(i int) *workload.Workload {
	switch i % 3 {
	case 1:
		return workload.TPCC()
	case 2:
		return workload.CPUIO(workload.DefaultCPUIOConfig())
	default:
		return workload.DS2()
	}
}

func (in *clusterInputs) trace(i int) *trace.Trace {
	n, s := in.cfg.clusterIntervals, in.seeds[i]
	switch i % 4 {
	case 1:
		return trace.Trace2(n, s)
	case 2:
		return trace.Trace3(n, s)
	case 3:
		return trace.Trace4(n, s)
	default:
		return trace.Trace1(n, s)
	}
}

// spec builds a fresh MultiTenantSpec: DS2/TPCC/CPUIO x Trace1-4 cycled
// across the tenants, goal 100 ms, the interference model on and the
// placement optimizer every fourth interval.
func (in *clusterInputs) spec() sim.MultiTenantSpec {
	spec := sim.MultiTenantSpec{
		Servers:        in.cfg.clusterServers,
		Seed:           in.seeds[0],
		Contention:     fabric.Contention{Enable: true},
		RebalanceEvery: 4,
	}
	for i := range in.seeds {
		spec.Tenants = append(spec.Tenants, sim.TenantSpec{
			ID:       fmt.Sprintf("tenant-%04d", i),
			Workload: in.workload(i),
			Trace:    in.trace(i),
			GoalMs:   100,
			Seed:     in.seeds[i] | 1, // zero would make the simulator derive one
		})
	}
	return spec
}

// resultHash is the sha256 of a dump of the result with every float in
// hexadecimal, so two results hash alike only if they agree bit for bit.
func resultHash(res sim.MultiTenantResult) string {
	h := sha256.New()
	fx := func(vs ...float64) {
		for _, v := range vs {
			fmt.Fprintf(h, " %x", v)
		}
	}
	fmt.Fprint(h, res.Migrations, res.Refusals, res.RebalanceMigrations)
	fx(res.PeakClusterCPUFrac, res.PeakWaitInflation)
	for _, t := range res.Tenants {
		fmt.Fprint(h, "\n", t.ID, t.Changes, t.RefusedResizes, t.Migrations, t.RebalanceMigrations, t.Actuation)
		fx(t.TotalCost, t.AvgCostPerInterval, t.P95Ms)
	}
	for _, n := range res.Nodes {
		fmt.Fprint(h, "\n", n.Node, n.Tenants)
		fx(n.Utilization[:]...)
		fx(n.Pressure[:]...)
		fx(n.Inflation[:]...)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// clusterRun is one timed RunMultiTenant.
type clusterRun struct {
	done time.Duration // completion, since the drive began
	wall time.Duration // inside RunMultiTenant
	cpu  time.Duration // process CPU since the previous run ended
	hash string
}

// simTrace collects the cluster path's seams: arrival times of decision
// records (they arrive in the serial apply phase, interval by interval) and
// the pool's progress snapshots.
type simTrace struct {
	tenants   int
	records   int
	first     time.Time // first record of the current interval
	last      time.Time // latest record
	ticks     time.Duration
	apply     time.Duration
	intervals int

	mu       sync.Mutex
	progress exec.Progress
}

// Record implements loop.Recorder. Single-goroutine by the simulator's
// contract.
func (st *simTrace) Record(loop.DecisionRecord) {
	now := time.Now()
	switch st.records % st.tenants {
	case 0:
		if !st.last.IsZero() {
			// Since the previous interval's last apply: that interval's
			// rebalance and contention pass, then this one's parallel ticks
			// and decisions, which the recorder cannot tell apart.
			st.ticks += now.Sub(st.last)
			st.intervals++
		}
		st.first = now
	case st.tenants - 1:
		st.apply += now.Sub(st.first)
	}
	st.last = now
	st.records++
}

func (st *simTrace) onProgress(p exec.Progress) {
	st.mu.Lock()
	if p.Done >= st.progress.Done {
		st.progress = p
	}
	st.mu.Unlock()
}

// runCluster is the cluster_contended workload.
func runCluster(cfg *config) (*result, error) {
	res := newResult(cfg, wlCluster)
	in := newClusterInputs(cfg)
	ctx := context.Background()
	runner := sim.NewRunner(sim.WithParallelism(clusterWorkers))

	// Set-up: build the spec and run it cold. A set-up here is a fraction of
	// a second, so there is time for twice as many as on the serve path.
	var setup []float64
	for i := 0; i < 2*cfg.coldStarts-1; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := runner.RunMultiTenant(ctx, in.spec()); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}

	// repeat runs the simulation back to back until end, the spec rebuilt
	// outside the clock each time.
	var last sim.MultiTenantResult
	repeat := func(r *sim.Runner, t0, end time.Time, st *simTrace) ([]clusterRun, error) {
		var runs []clusterRun
		cpu := processCPU()
		for time.Now().Before(end) {
			spec := in.spec()
			if st != nil {
				st.last = time.Time{} // a run's first interval has no apply before it to count from
				spec.Recorder = st
			}
			start := time.Now()
			out, err := r.RunMultiTenant(ctx, spec)
			if err != nil {
				return nil, err
			}
			done := time.Now()
			now := processCPU()
			runs = append(runs, clusterRun{done: done.Sub(t0), wall: done.Sub(start), cpu: now - cpu, hash: resultHash(out)})
			cpu, last = now, out
		}
		return runs, nil
	}

	t0 := time.Now()
	windowAt := t0.Add(cfg.warmup)
	if _, err := repeat(runner, t0, windowAt, nil); err != nil {
		return nil, err
	}
	begin := time.Now()
	runs, err := repeat(runner, begin, begin.Add(cfg.window), nil)
	if err != nil {
		return nil, err
	}
	heap := heapMB() // with the last result held
	runtime.KeepAlive(last)

	decisionsPerRun := float64(cfg.clusterTenants * cfg.clusterIntervals)
	res.add(metric{name: "setup_s", unit: "s", stat: setupStat(setup)})
	// The clock runs inside RunMultiTenant only: the spec is rebuilt
	// between repetitions outside it.
	sum := func(rs []clusterRun, f func(clusterRun) time.Duration) (d time.Duration) {
		for _, r := range rs {
			d += f(r)
		}
		return d
	}
	wall := func(r clusterRun) time.Duration { return r.wall }
	rate := func(rs []clusterRun) float64 {
		return float64(len(rs)) * decisionsPerRun / sum(rs, wall).Seconds()
	}
	res.add(metric{name: "decisions_per_s", unit: "1/s", stat: clusterSlices(cfg, runs, true, rate)})
	res.add(metric{name: "latency_p50_ms", unit: "ms", stat: clusterSlices(cfg, runs, false, func(rs []clusterRun) float64 {
		return stats.Quantile(wallsMs(rs), 0.50)
	})})
	// A slice holds half a dozen runs: their p90 lies midway between the
	// slowest two, the slow run of that second.
	res.add(metric{name: "latency_tail_ms", unit: "ms", stat: clusterSlices(cfg, runs, false, func(rs []clusterRun) float64 {
		return stats.Quantile(wallsMs(rs), 0.90)
	})})
	res.add(metric{name: "cpu_us_per_decision", unit: "us", stat: clusterSlices(cfg, runs, false, func(rs []clusterRun) float64 {
		return us(sum(rs, func(r clusterRun) time.Duration { return r.cpu })) / (float64(len(rs)) * decisionsPerRun)
	})})
	res.add(metric{name: "live_heap_mb", unit: "MB", stat: single(heap)})
	res.attempted = int64(len(runs))

	// Output check: every repetition, and one single-worker run, must
	// produce the same result bit for bit.
	serial, err := sim.NewRunner(sim.WithParallelism(1)).RunMultiTenant(ctx, in.spec())
	if err != nil {
		return nil, err
	}
	want := resultHash(serial)
	checkHashes := func(runs []clusterRun) {
		for i, r := range runs {
			if r.hash != want {
				res.failed++
				res.fail("repetition %d: result sha256 %s differs from the single-worker run's %s", i, r.hash, want)
			}
		}
	}
	checkHashes(runs)
	res.notes = append(res.notes, "sim.result_sha256 "+want)
	if !cfg.trace {
		return res, nil
	}

	st := &simTrace{tenants: cfg.clusterTenants}
	traced := sim.NewRunner(sim.WithParallelism(clusterWorkers), sim.WithProgress(st.onProgress))
	begin = time.Now()
	truns, err := repeat(traced, begin, begin.Add(cfg.traceWindow), st)
	if err != nil {
		return nil, err
	}
	checkHashes(truns)
	res.attempted += int64(len(truns))

	ticksMs := ratio(float64(st.ticks)/1e6, float64(st.intervals))
	applyMs := ratio(float64(st.apply)/1e6, float64(len(truns)*cfg.clusterIntervals))
	res.layer("sim.ticks_decide_ms_per_interval", "ms", ticksMs)
	res.layer("sim.apply_ms_per_interval", "ms", applyMs)
	res.layer("sim.serial_share", "ratio", ratio(applyMs, applyMs+ticksMs))
	res.layer("exec.worker_utilization", "ratio", st.progress.WorkerUtilization)
	res.layer("exec.task_p50_us", "us", us(st.progress.P50))
	res.layer("fabric.migrations_per_run", "count", float64(last.Migrations))
	res.layer("fabric.refusals_per_run", "count", float64(last.Refusals))
	res.layer("fabric.rebalance_moves_per_run", "count", float64(last.RebalanceMigrations))
	res.layer("trace.overhead_share", "ratio", 1-ratio(rate(truns), rate(runs)))
	if err := clusterIsolated(res, in); err != nil {
		return nil, err
	}
	return res, nil
}

func wallsMs(rs []clusterRun) []float64 {
	ms := make([]float64, len(rs))
	for i, r := range rs {
		ms[i] = float64(r.wall) / 1e6
	}
	return ms
}

// clusterSlices computes f over the runs that finished in each slice of
// the window and reduces the slices with the common estimator.
func clusterSlices(cfg *config, runs []clusterRun, higherIsBetter bool, f func(rs []clusterRun) float64) sliceStat {
	slices := max(1, int(cfg.window/cfg.slice))
	span := cfg.window / time.Duration(slices)
	var per []float64
	for i, lo := 0, 0; i < slices; i++ {
		hi := lo
		for hi < len(runs) && (runs[hi].done <= time.Duration(i+1)*span || i == slices-1) {
			hi++
		}
		if hi > lo {
			per = append(per, f(runs[lo:hi]))
		}
		lo = hi
	}
	return reduceSlices(per, higherIsBetter)
}

// clusterIsolated times the engine kernel and the fabric alone, on the
// same workloads, traces and seeds the cluster run uses.
func clusterIsolated(res *result, in *clusterInputs) error {
	cfg := in.cfg
	cat := resource.DefaultCatalog()

	// engine.TickBatch: every tenant's engine through every interval at
	// its trace's load, no loop, no fabric.
	gen := workload.NewGenerator(in.seeds[0], 0.1)
	var tick time.Duration
	for i := range in.seeds {
		eng, err := engine.New(in.workload(i), cat.Smallest(), in.seeds[i]|1, engine.Options{})
		if err != nil {
			return err
		}
		tr := in.trace(i)
		offered := make([]float64, eng.TicksPerInterval())
		for m := 0; m < cfg.clusterIntervals; m++ {
			for t := range offered {
				offered[t] = gen.Offered(tr.At(m))
			}
			start := time.Now()
			eng.TickBatch(offered)
			tick += time.Since(start)
			eng.EndInterval()
		}
	}
	res.layer("engine.tickbatch_us_per_tenant_interval", "us", us(tick)/float64(cfg.clusterTenants*cfg.clusterIntervals))

	// fabric: a contended placement (container sizes cycled so that some
	// nodes overcommit their shared channels), one Rebalance plan, then a
	// resize of every tenant one step up and back.
	fab, err := fabric.New(cfg.clusterServers, cat.Largest().Alloc, fabric.BestFit)
	if err != nil {
		return err
	}
	if err := fab.SetContention(fabric.Contention{Enable: true}); err != nil {
		return err
	}
	goals := make([]fabric.TenantGoal, cfg.clusterTenants)
	for i := range goals {
		id := fmt.Sprintf("tenant-%04d", i)
		if err := fab.Place(id, cat.AtStep(3+i%5)); err != nil {
			return err
		}
		goals[i] = fabric.TenantGoal{ID: id, GoalMs: 100, BaselineP95Ms: 60 + float64(i%5)*8}
	}
	const plans = 20
	start := time.Now()
	for i := 0; i < plans; i++ {
		fab.Rebalance(goals)
	}
	res.layer("fabric.rebalance_plan_ms", "ms", float64(time.Since(start))/1e6/plans)

	start = time.Now()
	ops := 0
	for _, up := range []int{1, 0} {
		for i := range goals {
			// A refusal is an outcome, not an error: it still costs the search.
			if _, err := fab.Resize(goals[i].ID, cat.AtStep(3+i%5+up)); err != nil && !errors.Is(err, fabric.ErrRefused) {
				return err
			}
			ops++
		}
	}
	res.layer("fabric.resize_us_per_op", "us", us(time.Since(start))/float64(ops))
	return nil
}
