// Package engine simulates a container-constrained relational database
// server — the substrate the paper prototypes on (Azure SQL Database /
// SQL Server). The simulation reproduces, at one-second granularity, the
// causal structure the paper's demand-estimation signals depend on:
//
//   - fluid queues per physical resource (CPU, disk I/O, log I/O): when
//     per-tick demand exceeds the container's allocation, a backlog builds,
//     requests wait (wait-statistics accrue) and latency rises;
//   - a buffer pool with a hotspot working set: cache warms as pages are
//     read, misses become physical disk I/Os, and shrinking memory below
//     the working set converts memory shortfall into disk-I/O demand (the
//     mechanism behind ballooning, Section 4.3 and Figure 14);
//   - an application-level lock model whose waits grow with offered
//     concurrency and are untouched by container size (the mechanism behind
//     the Figure 13 drill-down);
//   - per-request latency sampling with multiplicative variance, so tail
//     (95th-percentile) latency behaves realistically;
//   - optional telemetry noise injection (outlier spikes) to exercise the
//     robust statistics.
//
// The engine emits one telemetry.Snapshot per billing interval; everything
// the auto-scaler learns, it learns from those snapshots.
package engine

import (
	"fmt"
	"math"
	"math/rand"

	"daasscale/internal/resource"
	"daasscale/internal/stats"
	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

// Options tunes the engine's physical model. The zero value is completed by
// DefaultOptions.
type Options struct {
	// BaseLatencyMs is the fixed per-request overhead (network round trips,
	// parsing, result streaming) independent of resources.
	BaseLatencyMs float64
	// IOServiceMs is the service time of one physical disk I/O at an empty
	// queue.
	IOServiceMs float64
	// LogServiceMsPerKB is the log-write service time per kilobyte.
	LogServiceMsPerKB float64
	// MemStallMs is the per-request stall incurred when a hot-set access
	// misses the buffer pool.
	MemStallMs float64
	// LatencySigma is the lognormal dispersion of per-request latency
	// around the modelled mean; it shapes the p95/mean ratio.
	LatencySigma float64
	// ColdCacheMB is the buffer-pool size immediately after a restart.
	ColdCacheMB float64
	// WarmStart starts the buffer pool pre-warmed to the working set
	// (clamped to the container's memory), modelling a database measured
	// after its usual warm-up, as in the paper's runs.
	WarmStart bool
	// WarmMBPerPhysRead is how much cache a physical read warms (page size).
	WarmMBPerPhysRead float64
	// MaxQueueSeconds caps each resource backlog at this many seconds of
	// capacity; excess work is shed (modelling throttling/timeouts).
	MaxQueueSeconds float64
	// NoiseProb is the per-tick probability of an outlier telemetry spike
	// (a transient system activity); NoiseScale is its magnitude. Zero
	// selects the default; a negative value disables noise entirely.
	NoiseProb  float64
	NoiseScale float64
	// CheckpointEverySec, when > 0, models periodic checkpoints: every
	// CheckpointEverySec seconds the engine flushes accumulated dirty pages
	// as a burst of disk writes — one of the "transient system activities
	// such as checkpoints interacting with workload" the paper names as a
	// telemetry noise source (Section 3). 0 disables checkpoints.
	CheckpointEverySec int
	// TicksPerInterval is the number of one-second ticks per billing
	// interval (60 = one simulated minute, the paper's compressed billing
	// interval).
	TicksPerInterval int
}

// DefaultOptions returns the model constants used by the experiments.
func DefaultOptions() Options {
	return Options{
		BaseLatencyMs:     12,
		IOServiceMs:       0.35,
		LogServiceMsPerKB: 0.04,
		MemStallMs:        18,
		LatencySigma:      0.35,
		ColdCacheMB:       256,
		WarmMBPerPhysRead: 8.0 / 1024, // 8KB pages
		MaxQueueSeconds:   2,
		NoiseProb:         0.01,
		NoiseScale:        40,
		TicksPerInterval:  60,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.BaseLatencyMs == 0 {
		o.BaseLatencyMs = d.BaseLatencyMs
	}
	if o.IOServiceMs == 0 {
		o.IOServiceMs = d.IOServiceMs
	}
	if o.LogServiceMsPerKB == 0 {
		o.LogServiceMsPerKB = d.LogServiceMsPerKB
	}
	if o.MemStallMs == 0 {
		o.MemStallMs = d.MemStallMs
	}
	if o.LatencySigma == 0 {
		o.LatencySigma = d.LatencySigma
	}
	if o.ColdCacheMB == 0 {
		o.ColdCacheMB = d.ColdCacheMB
	}
	if o.WarmMBPerPhysRead == 0 {
		o.WarmMBPerPhysRead = d.WarmMBPerPhysRead
	}
	if o.MaxQueueSeconds == 0 {
		o.MaxQueueSeconds = d.MaxQueueSeconds
	}
	if o.NoiseProb == 0 {
		o.NoiseProb = d.NoiseProb
	}
	if o.NoiseScale == 0 {
		o.NoiseScale = d.NoiseScale
	}
	if o.TicksPerInterval == 0 {
		o.TicksPerInterval = d.TicksPerInterval
	}
	return o
}

// Contention carries the shared-channel wait-inflation multipliers a
// hosting fabric imposes on the engine for the coming interval(s) — the
// noisy-neighbor model's per-tenant output (fabric.ServerInflation mapped
// onto the wait classes each channel stalls). Each multiplier inflates
// one class of service/wait time: CPU the per-instruction service and CPU
// queueing (cache interference), Memory the buffer-pool page-in stalls,
// and LogIO the log-write service and waits. Multipliers are ≥ 1; the
// identity multipliers reproduce the uncontended engine bit-for-bit
// (multiplying by exactly 1.0 is an IEEE-754 identity), which is what
// keeps zero-contention runs byte-identical to the historical outputs.
//
// The multipliers deliberately inflate only waits and latency, never the
// demand/served/billing series: interference steals time, not accounted
// capacity. That keeps utilization telemetry truthful and makes the
// placement optimizer's baseline-division p95 prediction exact to first
// order.
type Contention struct {
	CPU    float64
	Memory float64
	LogIO  float64
}

// NoContention is the identity multiplier set.
func NoContention() Contention { return Contention{CPU: 1, Memory: 1, LogIO: 1} }

// normalized lifts unset or sub-identity multipliers to 1 (a fabric never
// speeds a tenant up; the zero value must mean "uncontended").
func (c Contention) normalized() Contention {
	if !(c.CPU > 1) {
		c.CPU = 1
	}
	if !(c.Memory > 1) {
		c.Memory = 1
	}
	if !(c.LogIO > 1) {
		c.LogIO = 1
	}
	return c
}

// Engine simulates one tenant database inside a resource container.
type Engine struct {
	w    *workload.Workload
	prof workload.Profile
	opts Options
	cont resource.Container
	rng  *rand.Rand

	// contention is the external wait-inflation multiplier set, installed
	// between intervals by a hosting cluster runner (identity otherwise).
	contention Contention

	// Buffer-pool state.
	usedMB      float64
	memTargetMB float64 // 0 = no ballooning target

	// Checkpoint state: dirty pages accumulated since the last checkpoint.
	dirtyPages float64

	// Fluid-queue backlogs.
	backlogCPUms  float64
	backlogIOOps  float64
	backlogLogKB  float64
	sheddedCPUms  float64
	sheddedIOOps  float64
	sheddedLogKB  float64
	intervalIndex int
	tick          int

	acc intervalAccumulator
}

// intervalAccumulator collects per-tick observations for one billing
// interval.
type intervalAccumulator struct {
	servedCPU, capCPU float64
	servedIO, capIO   float64
	servedLog, capLog float64
	peakUtil          resource.Vector
	waitMs            [telemetry.NumWaitClasses]float64
	latSamples        []float64
	txns              float64
	offeredSum        float64
	physReads         float64
	physWrites        float64
	ticks             int
}

// MaxLatencySamplesPerTick caps how many per-request latency samples one
// tick records: min(offered, this) per tick.
// Collectors sizing run-level sample buffers use it as the per-tick upper
// bound.
const MaxLatencySamplesPerTick = 24

// maxRetainedLatSamples caps the latency-sample backing array an engine
// keeps across interval resets. A default interval produces at most
// 24×TicksPerInterval samples (1440), far under the cap, so steady-state
// turnover still reuses one array; only a burst interval (a caller ticking
// far past TicksPerInterval before EndInterval) overshoots it, and without
// the cap that one burst would pin its oversized array for the engine's
// whole lifetime.
const maxRetainedLatSamples = 4096

// reset clears the accumulator for the next interval while keeping the
// latency-sample backing array, so steady-state interval turnover does not
// reallocate it. Backing arrays beyond maxRetainedLatSamples are released
// instead of retained.
func (a *intervalAccumulator) reset() {
	lat := a.latSamples[:0]
	if cap(lat) > maxRetainedLatSamples {
		lat = nil
	}
	*a = intervalAccumulator{}
	a.latSamples = lat
}

// New creates an engine for the workload inside the given container. The
// seed makes every run reproducible. The workload must validate.
func New(w *workload.Workload, cont resource.Container, seed int64, opts Options) (*Engine, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	o := opts.withDefaults()
	e := &Engine{
		w:          w,
		prof:       w.MixProfile(),
		opts:       o,
		cont:       cont,
		rng:        rand.New(rand.NewSource(seed)),
		contention: NoContention(),
	}
	start := o.ColdCacheMB
	if o.WarmStart && w.WorkingSetMB > start {
		start = w.WorkingSetMB
	}
	e.usedMB = math.Min(start, cont.Alloc[resource.Memory])
	return e, nil
}

// Container returns the current container.
func (e *Engine) Container() resource.Container { return e.cont }

// SetContainer resizes the container (an online operation in the DaaS).
// Shrinking memory evicts cache immediately; growing memory requires the
// cache to re-warm through physical reads.
func (e *Engine) SetContainer(c resource.Container) {
	e.cont = c
	if e.usedMB > c.Alloc[resource.Memory] {
		e.usedMB = c.Alloc[resource.Memory]
	}
}

// SetContention installs the shared-channel wait-inflation multipliers
// for subsequent ticks. Cluster runners call it between intervals, from
// the serial apply phase, with the hosting node's inflation; multipliers
// below 1 (including the zero value) are lifted to the identity.
func (e *Engine) SetContention(c Contention) { e.contention = c.normalized() }

// MigrateRestart models the buffer-pool consequence of migrating the
// tenant to another node: the cache restarts cold and must re-warm
// through physical reads — the latency charge every optimizer-planned
// migration pays, on top of riding the failable actuation channel.
func (e *Engine) MigrateRestart() {
	if e.usedMB > e.opts.ColdCacheMB {
		e.usedMB = e.opts.ColdCacheMB
	}
}

// SetMemoryTargetMB installs a ballooning target below the container's
// memory allocation; the buffer pool is clamped to the target. A target of
// 0 removes ballooning.
func (e *Engine) SetMemoryTargetMB(mb float64) { e.memTargetMB = mb }

// MemoryTargetMB returns the current ballooning target (0 when none).
func (e *Engine) MemoryTargetMB() float64 { return e.memTargetMB }

// IntervalLatencies returns the latency samples recorded since the last
// EndInterval, in generation order — the one way to collect them: run-level
// collectors copy the slice once per interval, before EndInterval. The
// slice aliases the engine's internal buffer: it is valid only until the
// next Tick, TickBatch or EndInterval call and must not be mutated.
func (e *Engine) IntervalLatencies() []float64 { return e.acc.latSamples }

// TicksPerInterval returns the configured interval length in ticks.
func (e *Engine) TicksPerInterval() int { return e.opts.TicksPerInterval }

// effectiveMemoryMB is the buffer-pool ceiling: the container allocation,
// further limited by any ballooning target.
func (e *Engine) effectiveMemoryMB() float64 {
	capMB := e.cont.Alloc[resource.Memory]
	if e.memTargetMB > 0 && e.memTargetMB < capMB {
		capMB = e.memTargetMB
	}
	return capMB
}

// Tick advances the simulation by one second with the given offered load
// (transactions arriving during the second): a one-element TickBatch over
// a stack array, so it allocates nothing.
func (e *Engine) Tick(offered float64) {
	one := [1]float64{offered}
	e.TickBatch(one[:])
}

// EndInterval closes the current billing interval, returning its telemetry
// snapshot and resetting the accumulators. Call after TicksPerInterval
// ticks (the sim harness enforces this; calling early yields a snapshot
// over the ticks so far).
func (e *Engine) EndInterval() telemetry.Snapshot {
	a := &e.acc
	s := telemetry.Snapshot{
		Interval:       e.intervalIndex,
		Container:      e.cont.Name,
		Step:           e.cont.Step,
		Cost:           e.cont.Cost,
		WaitMs:         a.waitMs,
		Transactions:   a.txns,
		MemoryUsedMB:   e.usedMB,
		PhysicalReads:  a.physReads,
		PhysicalWrites: a.physWrites,
	}
	if a.capCPU > 0 {
		s.Utilization[resource.CPU] = a.servedCPU / a.capCPU
	}
	if mem := e.cont.Alloc[resource.Memory]; mem > 0 {
		s.Utilization[resource.Memory] = e.usedMB / mem
	}
	if a.capIO > 0 {
		s.Utilization[resource.DiskIO] = a.servedIO / a.capIO
	}
	if a.capLog > 0 {
		s.Utilization[resource.LogIO] = a.servedLog / a.capLog
	}
	s.UtilizationPeak = a.peakUtil
	s.UtilizationPeak[resource.Memory] = s.Utilization[resource.Memory]
	if a.ticks > 0 {
		s.OfferedRPS = a.offeredSum / float64(a.ticks)
	}
	if len(a.latSamples) > 0 {
		var sum float64
		for _, l := range a.latSamples {
			sum += l
		}
		s.AvgLatencyMs = sum / float64(len(a.latSamples))
		// The sample array is reset right after this, so the selection's
		// in-place permutation is dead state: no copy, no sort, and the
		// unordered variant's sampled bracket and Hoare partition apply.
		s.P95LatencyMs = stats.QuantileSelectUnordered(a.latSamples, 0.95)
	}
	e.acc.reset()
	e.intervalIndex++
	return s
}
