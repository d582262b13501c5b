package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachEmptyAndNil(t *testing.T) {
	if err := NewPool(Options{}).Run(context.Background(), 0, func(context.Context, int) error { return nil }); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := NewPool(Options{}).Run(context.Background(), 3, nil); err == nil {
		t.Error("nil task should fail")
	}
}

// TestForEachFirstErrorWins: task 10's error is the batch's, and it
// cancels the batch. Every later task blocks until the task context is
// done, so a batch the error did not cancel hangs into the guard instead
// of racing 4 workers through 1,000 no-op tasks.
func TestForEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	const workers = 4
	var ran atomic.Int64
	err := NewPool(Options{Workers: workers}).Run(context.Background(), 1000, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 10 {
			return fmt.Errorf("task %d: %w", i, boom)
		}
		if i > 10 {
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
				t.Errorf("task %d: the error did not cancel the batch within 10s", i)
			}
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Tasks are handed out in index order, so at most one more per
	// worker starts after task 10 before the cancel lands.
	if n := ran.Load(); n > 11+workers {
		t.Errorf("%d tasks ran; the error did not short-circuit the batch", n)
	}
}

func TestForEachCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := NewPool(Options{Workers: 2}).Run(ctx, 100, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran on a dead context", ran.Load())
	}
}

func TestForEachCancelMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	start := time.Now()
	err := NewPool(Options{Workers: 2}).Run(ctx, 10_000, func(ctx context.Context, i int) error {
		if ran.Add(1) == 20 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() > 200 {
		t.Errorf("cancellation was not prompt: %d tasks ran", ran.Load())
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

// TestProgressConcurrent exercises the progress hook from many workers at
// once — run under -race this is the regression test for callback safety.
func TestProgressConcurrent(t *testing.T) {
	var (
		mu   sync.Mutex
		last Progress
		hits int
	)
	pool := NewPool(Options{Workers: 8, ProgressEvery: 1, OnProgress: func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		hits++
		last = p
	}})
	err := pool.Run(context.Background(), 500, func(context.Context, int) error {
		time.Sleep(20 * time.Microsecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits < 500 {
		t.Errorf("progress hook fired %d times, want ≥ 500", hits)
	}
	if last.Done != 500 || last.Total != 500 {
		t.Errorf("final progress %+v, want 500/500", last)
	}
	if last.Failed != 0 {
		t.Errorf("failed = %d", last.Failed)
	}
	if last.TasksPerSec <= 0 {
		t.Errorf("tasks/sec = %v", last.TasksPerSec)
	}
	if last.WorkerUtilization < 0 || last.WorkerUtilization > 1 {
		t.Errorf("worker utilization = %v", last.WorkerUtilization)
	}
	if last.P95 < last.P50 {
		t.Errorf("p95 %v below p50 %v", last.P95, last.P50)
	}
}

func TestPoolAccumulatesAcrossBatches(t *testing.T) {
	pool := NewPool(Options{Workers: 3})
	for batch := 0; batch < 5; batch++ {
		if err := pool.Run(context.Background(), 40, func(context.Context, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Done != 200 || st.Total != 200 {
		t.Errorf("stats after 5 batches: %+v", st)
	}
	if st.Workers != 3 {
		t.Errorf("workers = %d", st.Workers)
	}
}

func TestSplitSeed(t *testing.T) {
	if SplitSeed(1, 2) != SplitSeed(1, 2) {
		t.Error("SplitSeed not deterministic")
	}
	seen := map[int64]bool{}
	for i := int64(0); i < 10_000; i++ {
		s := SplitSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	// Different bases give different streams.
	if SplitSeed(1, 7) == SplitSeed(2, 7) {
		t.Error("base seed does not separate streams")
	}
	if SplitSeedString(1, "tenant-a") == SplitSeedString(1, "tenant-b") {
		t.Error("string identities collide")
	}
	if SplitSeedString(9, "x") != SplitSeedString(9, "x") {
		t.Error("SplitSeedString not deterministic")
	}
}

// TestPanicRecoveredIntoTaskError: a panicking task must not kill the
// process — Run returns a *PanicError carrying the index, the panic value
// and a stack trace, and the remaining work is canceled like any other
// first task error.
func TestPanicRecoveredIntoTaskError(t *testing.T) {
	var done atomic.Int64
	err := NewPool(Options{Workers: 4}).Run(context.Background(), 64, func(ctx context.Context, i int) error {
		if i == 7 {
			panic("tenant 7 corrupted its engine")
		}
		done.Add(1)
		return nil
	})
	if err == nil {
		t.Fatal("panic must surface as a task error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Index != 7 {
		t.Errorf("Index = %d, want 7", pe.Index)
	}
	if pe.Value != "tenant 7 corrupted its engine" {
		t.Errorf("Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "exec_test.go") {
		t.Errorf("stack does not point at the panic site:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "task 7 panicked") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

// TestPanicCountsAsFailedTask: the pool's metrics classify a recovered
// panic as a failed task, not a lost one.
func TestPanicCountsAsFailedTask(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	_ = p.Run(context.Background(), 4, func(ctx context.Context, i int) error {
		if i == 0 {
			panic(i)
		}
		return nil
	})
	st := p.Stats()
	if st.Failed == 0 {
		t.Errorf("recovered panic must count as a failed task: %+v", st)
	}
	if st.Done != st.Total {
		t.Errorf("Done %d must converge to Total %d after the batch", st.Done, st.Total)
	}
}

// TestTaskTimeoutWatchdog: with TaskTimeout set, a task that honours its
// context is cut off at the deadline and the batch fails with an error
// wrapping context.DeadlineExceeded; the parent context stays live.
func TestTaskTimeoutWatchdog(t *testing.T) {
	err := NewPool(Options{Workers: 2, TaskTimeout: 10 * time.Millisecond}).Run(context.Background(), 2,
		func(ctx context.Context, i int) error {
			if i == 0 {
				return nil // fast task: finishes well inside the deadline
			}
			<-ctx.Done() // slow task: waits for the watchdog
			return ctx.Err()
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestTaskTimeoutNotTriggeredByFastTasks: tasks that finish inside the
// deadline are unaffected by the watchdog.
func TestTaskTimeoutNotTriggeredByFastTasks(t *testing.T) {
	err := NewPool(Options{Workers: 4, TaskTimeout: time.Second}).Run(context.Background(), 32,
		func(ctx context.Context, i int) error { return ctx.Err() })
	if err != nil {
		t.Fatalf("fast tasks must pass under the watchdog: %v", err)
	}
}

// TestStatsBeforeFirstTask: a Stats snapshot taken before the pool ever
// ran a task must be all-zero and finite — no NaN/Inf from dividing by a
// zero Elapsed. Progress printers render the first snapshot unguarded.
func TestStatsBeforeFirstTask(t *testing.T) {
	p := NewPool(Options{Workers: 4})
	st := p.Stats()
	if st.Done != 0 || st.Total != 0 || st.Failed != 0 || st.Elapsed != 0 {
		t.Fatalf("fresh pool stats %+v", st)
	}
	for name, v := range map[string]float64{
		"TasksPerSec":       st.TasksPerSec,
		"WorkerUtilization": st.WorkerUtilization,
	} {
		if v != 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s = %v before first task, want exactly 0", name, v)
		}
	}
	// And after an empty batch (n = 0): still finite zeros.
	if err := p.Run(context.Background(), 0, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if math.IsNaN(st.TasksPerSec) || math.IsInf(st.TasksPerSec, 0) {
		t.Fatalf("TasksPerSec = %v after empty batch", st.TasksPerSec)
	}
}
