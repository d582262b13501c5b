// Package exec is the parallel fan-out executor behind every fleet-scale
// simulation path. Per-tenant simulations are embarrassingly parallel —
// each tenant owns its engine, generator and RNG — so the executor's job is
// purely mechanical: spread N independent, index-addressed tasks across a
// fixed pool of workers, honour context cancellation promptly, keep memory
// bounded regardless of fleet size, and expose cheap progress metrics
// (tasks/sec, per-task p50/p95 wall time, worker utilization) that the CLIs
// can render while a thousand-tenant replay grinds.
//
// Determinism is the design constraint everything else bends around:
// workers pull indices from an atomic counter (no queue, no channel
// buffering), every task writes only its own index-addressed slot, and all
// randomness is derived from the base seed via SplitSeed — so a parallel
// run is bit-identical to a serial run of the same seed, regardless of
// worker count or scheduling order.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is the error a recovered worker panic converts into: a single
// panicking task fails its run cleanly instead of killing the whole
// process (one misbehaving tenant out of a thousand must not take the
// fleet replay down with it). It records the task index, the recovered
// value, and the goroutine stack at the point of the panic.
type PanicError struct {
	// Index is the task index that panicked.
	Index int
	// Value is the value passed to panic().
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

// Error renders the panic with its stack, so the failure is debuggable
// from the run error alone.
func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// durationWindow is the size of the ring buffer of recent per-task wall
// times used for the p50/p95 progress metrics. A fixed window keeps the
// executor's memory footprint independent of how many tasks run through it.
const durationWindow = 512

// Progress is a point-in-time snapshot of a pool's throughput metrics. The
// executor hands it to the OnProgress hook and returns it from Stats.
type Progress struct {
	// Done is the number of tasks that finished (successfully or not) and
	// Total the number submitted so far across all batches.
	Done, Total int
	// Failed counts tasks that returned an error.
	Failed int
	// Workers is the resolved worker count.
	Workers int
	// Elapsed is the wall time since the pool started its first task.
	Elapsed time.Duration
	// TasksPerSec is Done divided by Elapsed; zero (never NaN/Inf) when
	// the pool has not started a task yet, so progress hooks and reports
	// can render a first snapshot without guarding.
	TasksPerSec float64
	// P50 and P95 are per-task wall-time quantiles over a sliding window of
	// recent tasks.
	P50, P95 time.Duration
	// WorkerUtilization is the fraction of worker·seconds actually spent
	// inside tasks: 1.0 means every worker was busy the whole time.
	WorkerUtilization float64
}

// Options configures a pool.
type Options struct {
	// Workers is the pool size; values ≤ 0 select runtime.GOMAXPROCS(0).
	Workers int
	// OnProgress, when non-nil, is called with a metrics snapshot roughly
	// every ProgressEvery task completions and once after every batch. It
	// may be called concurrently from several workers; the executor does
	// not serialize the calls.
	OnProgress func(Progress)
	// ProgressEvery is the completion stride between OnProgress calls
	// (≤ 0 → every 64 completions).
	ProgressEvery int
	// TaskTimeout, when > 0, is a per-task deadline watchdog: each task
	// runs under a context that expires TaskTimeout after the task
	// starts. The watchdog is cooperative — tasks must honour their
	// context (every simulation loop probes it once per billing
	// interval) — and an expired task fails its batch with an error
	// wrapping context.DeadlineExceeded.
	TaskTimeout time.Duration
}

// Pool executes batches of independent, index-addressed tasks on a fixed
// number of workers. Metrics accumulate across batches, so a caller that
// fans out once per billing interval still gets fleet-level throughput
// numbers. The zero value is not usable; construct with NewPool.
type Pool struct {
	workers int
	onProg  func(Progress)
	every   int
	timeout time.Duration

	total  atomic.Int64 // tasks submitted
	done   atomic.Int64 // tasks finished
	failed atomic.Int64 // tasks that returned an error
	busyNs atomic.Int64 // Σ per-task wall time

	mu     sync.Mutex // guards start and window
	start  time.Time
	window [durationWindow]time.Duration
	filled int
}

// NewPool builds a pool. The worker count is resolved once, at
// construction, so every batch of the same pool runs at the same width.
func NewPool(opts Options) *Pool {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	every := opts.ProgressEvery
	if every <= 0 {
		every = 64
	}
	return &Pool{workers: w, onProg: opts.OnProgress, every: every, timeout: opts.TaskTimeout}
}

// Run executes task(ctx, i) for every i in [0, n) across the pool's workers
// and blocks until all of them finished or the context was canceled. Work
// is distributed by an atomic counter, so no task list is materialized and
// memory stays bounded; tasks must confine their writes to index-addressed
// state (slot i of a result slice), which is what makes parallel execution
// bit-identical to serial.
//
// The first task error cancels the remaining work and is returned. If the
// parent context is canceled, Run returns the context's error; tasks
// already started are allowed to finish (they should watch ctx themselves
// if they are long).
func (p *Pool) Run(ctx context.Context, n int, task func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if task == nil {
		return errors.New("exec: nil task")
	}
	p.mu.Lock()
	if p.start.IsZero() {
		p.start = time.Now()
	}
	p.mu.Unlock()
	p.total.Add(int64(n))

	batchCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := p.workers
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if batchCtx.Err() != nil {
					// Account for the tasks this batch will never run so
					// Done/Total converge even on cancellation.
					p.done.Add(1)
					continue
				}
				begin := time.Now()
				err := p.runTask(batchCtx, i, task)
				p.observe(time.Since(begin), err)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	p.emit()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runTask executes one task with the pool's safety net: a panic is
// recovered into a *PanicError (the run fails cleanly, the process
// survives), and the optional per-task deadline watchdog bounds the
// task's context.
func (p *Pool) runTask(ctx context.Context, i int, task func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	if p.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
		defer cancel()
	}
	return task(ctx, i)
}

// observe records one finished task and emits progress on the stride.
func (p *Pool) observe(d time.Duration, err error) {
	p.busyNs.Add(int64(d))
	if err != nil {
		p.failed.Add(1)
	}
	done := p.done.Add(1)
	p.mu.Lock()
	p.window[int((done-1)%durationWindow)] = d
	if p.filled < durationWindow {
		p.filled++
	}
	p.mu.Unlock()
	if p.onProg != nil && done%int64(p.every) == 0 {
		p.onProg(p.Stats())
	}
}

// emit pushes a final snapshot after a batch completes.
func (p *Pool) emit() {
	if p.onProg != nil {
		p.onProg(p.Stats())
	}
}

// Stats returns the pool's current metrics snapshot. Safe to call
// concurrently with Run.
func (p *Pool) Stats() Progress {
	pr := Progress{
		Done:    int(p.done.Load()),
		Total:   int(p.total.Load()),
		Failed:  int(p.failed.Load()),
		Workers: p.workers,
	}
	p.mu.Lock()
	filled := p.filled
	var buf [durationWindow]time.Duration
	copy(buf[:], p.window[:filled])
	start := p.start
	p.mu.Unlock()
	if !start.IsZero() {
		pr.Elapsed = time.Since(start)
	}
	// Zero-elapsed guard: before the first task starts (or if the clock
	// has not advanced) the rates stay 0 instead of dividing to NaN/Inf.
	if pr.Elapsed > 0 {
		pr.TasksPerSec = float64(pr.Done) / pr.Elapsed.Seconds()
		pr.WorkerUtilization = float64(p.busyNs.Load()) /
			(pr.Elapsed.Seconds() * float64(p.workers) * float64(time.Second))
		if pr.WorkerUtilization > 1 {
			pr.WorkerUtilization = 1
		}
	}
	if filled > 0 {
		ds := buf[:filled]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		pr.P50 = ds[filled/2]
		pr.P95 = ds[(filled*95)/100]
	}
	return pr
}
