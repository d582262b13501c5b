package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"daasscale/internal/exec"
	"daasscale/internal/fabric"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// clusterSpec is a small multi-tenant spec with derived tenant seeds (Seed 0
// → split from the cluster seed), exercising the full parallel path.
func clusterSpec() MultiTenantSpec {
	return MultiTenantSpec{
		Tenants: []TenantSpec{
			{ID: "web", Workload: workload.DS2(), Trace: trace.Trace1(60, 1), GoalMs: 60},
			{ID: "oltp", Workload: workload.TPCC(), Trace: trace.Trace4(60, 2), GoalMs: 200},
			{ID: "batch", Workload: workload.CPUIO(workload.DefaultCPUIOConfig()), Trace: trace.Trace2(60, 3), GoalMs: 80},
			{ID: "idle", Workload: workload.DS2(), Trace: trace.Trace2(40, 4), GoalMs: 0},
		},
		Servers: 2,
		Policy:  fabric.BestFit,
		Seed:    99,
	}
}

// TestRunnerMultiTenantDeterministic is the core promise of the parallel
// engine: worker count changes wall time, never results.
func TestRunnerMultiTenantDeterministic(t *testing.T) {
	spec := clusterSpec()
	serial, err := NewRunner(WithParallelism(1)).RunMultiTenant(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := NewRunner(WithParallelism(workers)).RunMultiTenant(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: parallel result differs from serial\nserial: %+v\nparallel: %+v", workers, serial, par)
		}
	}
}

func TestRunnerComparisonDeterministic(t *testing.T) {
	cs := ComparisonSpec{
		Workload:   workload.DS2(),
		Trace:      trace.Trace2(40, 7),
		GoalFactor: 5,
		Seed:       11,
	}
	serial, err := NewRunner(WithParallelism(1)).RunComparison(context.Background(), cs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(WithParallelism(6)).RunComparison(context.Background(), cs)
	if err != nil {
		t.Fatal(err)
	}
	// The Max run has no goal, so its series carries NaN performance
	// factors; compare the rendered form (NaN-stable) byte for byte.
	if fmt.Sprintf("%v", serial) != fmt.Sprintf("%v", par) {
		t.Error("parallel comparison differs from serial")
	}
	want := []string{"Max", "Peak", "Avg", "Trace", "Util", "Auto"}
	for i, r := range par.Results {
		if r.Policy != want[i] {
			t.Errorf("result %d is %q, want %q", i, r.Policy, want[i])
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: every path must notice before real work

	r := NewRunner()
	if _, err := r.Run(ctx, Spec{
		Workload: workload.DS2(), Trace: trace.Trace2(40, 7),
		Policy: policy.NewStatic("Fixed", cat.AtStep(5)), Seed: 1,
	}); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("Run: err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if _, err := r.RunComparison(ctx, ComparisonSpec{
		Workload: workload.DS2(), Trace: trace.Trace2(40, 7), GoalFactor: 5,
	}); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("RunComparison: err = %v", err)
	}
	if _, err := r.RunMultiTenant(ctx, clusterSpec()); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("RunMultiTenant: err = %v", err)
	}
	if _, err := r.RunBallooning(ctx, BallooningSpec{Seed: 1}); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("RunBallooning: err = %v", err)
	}
}

// TestRunnerCancelMidRun cancels from inside the progress hook and expects
// the run to stop with ErrCanceled instead of completing.
func TestRunnerCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	r := NewRunner(WithParallelism(2), WithProgress(func(exec.Progress) {
		fired.Store(true)
		cancel()
	}))
	_, err := r.RunMultiTenant(ctx, clusterSpec())
	if !fired.Load() {
		t.Fatal("progress hook never fired")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

// TestRunnerProgressConcurrent hammers the progress hook from several
// workers; run with -race this is the regression test for hook safety.
func TestRunnerProgressConcurrent(t *testing.T) {
	var calls atomic.Int64
	var lastDone atomic.Int64
	r := NewRunner(WithParallelism(4), WithProgress(func(p exec.Progress) {
		calls.Add(1)
		lastDone.Store(int64(p.Done))
		_ = p.TasksPerSec
		_ = p.WorkerUtilization
	}))
	if _, err := r.RunMultiTenant(context.Background(), clusterSpec()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Error("progress hook never called")
	}
	if lastDone.Load() == 0 {
		t.Error("progress snapshots never reported completed work")
	}
}

func TestRunnerValidationSentinels(t *testing.T) {
	ctx := context.Background()
	r := NewRunner()
	cases := []struct {
		name string
		err  func() error
	}{
		{"empty spec", func() error { _, err := r.Run(ctx, Spec{}); return err }},
		{"zero-interval trace", func() error {
			_, err := r.Run(ctx, Spec{Workload: workload.DS2(), Trace: trace.Trace2(0, 1), Policy: policy.NewMax(cat)})
			return err
		}},
		{"negative jitter", func() error {
			_, err := r.Run(ctx, Spec{Workload: workload.DS2(), Trace: shortTrace(), Policy: policy.NewMax(cat), Jitter: -1})
			return err
		}},
		{"comparison missing workload", func() error { _, err := r.RunComparison(ctx, ComparisonSpec{}); return err }},
		{"comparison goal factor ≤ 1", func() error {
			_, err := r.RunComparison(ctx, ComparisonSpec{Workload: workload.DS2(), Trace: shortTrace(), GoalFactor: 1})
			return err
		}},
		{"comparison empty catalog", func() error {
			_, err := r.RunComparison(ctx, ComparisonSpec{
				Workload: workload.DS2(), Trace: shortTrace(), GoalFactor: 5, Catalog: &resource.Catalog{},
			})
			return err
		}},
		{"multi-tenant no tenants", func() error { _, err := r.RunMultiTenant(ctx, MultiTenantSpec{}); return err }},
		{"multi-tenant duplicate IDs", func() error {
			_, err := r.RunMultiTenant(ctx, MultiTenantSpec{Tenants: []TenantSpec{
				{ID: "a", Workload: workload.DS2(), Trace: shortTrace()},
				{ID: "a", Workload: workload.DS2(), Trace: shortTrace()},
			}})
			return err
		}},
		{"ballooning negative intervals", func() error {
			_, err := r.RunBallooning(ctx, BallooningSpec{Intervals: -1})
			return err
		}},
		{"ballooning shrink past end", func() error {
			_, err := r.RunBallooning(ctx, BallooningSpec{Intervals: 10, ShrinkAt: 10})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.err(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

func TestRunnerOptionDefaults(t *testing.T) {
	base := Spec{
		Workload: workload.DS2(),
		Trace:    shortTrace(),
		Policy:   policy.NewStatic("Fixed", cat.AtStep(5)),
		// A goal keeps PerformanceFactor finite, so DeepEqual is usable.
		GoalMs: 100,
	}

	// WithSeed fills a zero spec seed; an explicit spec seed wins.
	seeded := base
	seeded.Seed = 42
	want, err := NewRunner().Run(context.Background(), seeded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewRunner(WithSeed(42)).Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("WithSeed(42) on a zero-seed spec differs from an explicit Seed 42")
	}
	override := base
	override.Seed = 7
	got2, err := NewRunner(WithSeed(42)).Run(context.Background(), override)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, got2) {
		t.Error("an explicit spec seed should override WithSeed")
	}
}
