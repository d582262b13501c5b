package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"daasscale/internal/engine"
	"daasscale/internal/fabric"
	"daasscale/internal/loop"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

func TestRunMultiTenantValidation(t *testing.T) {
	if _, err := NewRunner().RunMultiTenant(context.Background(), MultiTenantSpec{}); err == nil {
		t.Error("empty tenant list should fail")
	}
	if _, err := NewRunner().RunMultiTenant(context.Background(), MultiTenantSpec{Tenants: []TenantSpec{{ID: "x"}}}); err == nil {
		t.Error("tenant without workload/trace should fail")
	}
}

func TestMultiTenantClusterRun(t *testing.T) {
	spec := MultiTenantSpec{
		Tenants: []TenantSpec{
			{ID: "web", Workload: workload.DS2(), Trace: trace.Trace1(150, 1), GoalMs: 60, Seed: 1},
			{ID: "oltp", Workload: workload.TPCC(), Trace: trace.Trace4(150, 2), GoalMs: 200, Seed: 2},
			{ID: "batch", Workload: workload.CPUIO(workload.DefaultCPUIOConfig()), Trace: trace.Trace2(150, 3), GoalMs: 80, Seed: 3},
		},
		Servers:    2,
		Policy:     fabric.BestFit,
		EngineOpts: engine.Options{WarmStart: true},
	}
	res, err := NewRunner().RunMultiTenant(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 3 {
		t.Fatalf("tenant results = %d", len(res.Tenants))
	}
	for _, tr := range res.Tenants {
		if tr.TotalCost <= 0 {
			t.Errorf("tenant %s accrued no cost", tr.ID)
		}
		if tr.P95Ms <= 0 {
			t.Errorf("tenant %s has no latency", tr.ID)
		}
	}
	// The invariant is validated every interval inside the runner; the run
	// completing without error is the assertion. Peak cluster allocation
	// must be a sane fraction.
	if res.PeakClusterCPUFrac <= 0 || res.PeakClusterCPUFrac > 1 {
		t.Errorf("peak cluster allocation = %v", res.PeakClusterCPUFrac)
	}
}

func TestMultiTenantRefusalsReconcile(t *testing.T) {
	// One server, several hungry tenants: the fabric must refuse some
	// scale-ups, and the run must stay consistent (controllers reconciled).
	heavy := workload.CPUIO(workload.CPUIOConfig{CPUWeight: 1, IOWeight: 1, WorkingSetMB: 2048, HotspotFraction: 0.95})
	spec := MultiTenantSpec{
		Tenants: []TenantSpec{
			{ID: "a", Workload: heavy, Trace: trace.Trace1(120, 1).Scale(1.5), GoalMs: 60, Seed: 4},
			{ID: "b", Workload: heavy, Trace: trace.Trace1(120, 2).Scale(1.5), GoalMs: 60, Seed: 5},
			{ID: "c", Workload: heavy, Trace: trace.Trace1(120, 3).Scale(1.5), GoalMs: 60, Seed: 6},
		},
		Servers: 1,
		Policy:  fabric.FirstFit,
	}
	res, err := NewRunner().RunMultiTenant(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refusals == 0 {
		t.Error("an overcommitted cluster should refuse some resizes")
	}
	var refused int
	for _, tr := range res.Tenants {
		refused += tr.RefusedResizes
	}
	if refused != res.Refusals {
		t.Errorf("per-tenant refusals %d != fabric refusals %d", refused, res.Refusals)
	}
}

func TestMultiTenantDeterminism(t *testing.T) {
	spec := func() MultiTenantSpec {
		return MultiTenantSpec{
			Tenants: []TenantSpec{
				{ID: "a", Workload: workload.DS2(), Trace: trace.Trace1(80, 1), GoalMs: 60, Seed: 1},
				{ID: "b", Workload: workload.TPCC(), Trace: trace.Trace4(60, 2), GoalMs: 200, Seed: 2},
			},
			Servers:    2,
			EngineOpts: engine.Options{WarmStart: true},
		}
	}
	a, err := NewRunner().RunMultiTenant(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().RunMultiTenant(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tenants {
		if !reflect.DeepEqual(a.Tenants[i], b.Tenants[i]) {
			t.Fatalf("tenant %d diverged: %+v vs %+v", i, a.Tenants[i], b.Tenants[i])
		}
	}
	// The shorter trace idles out: tenant b's engine keeps running at zero
	// offered load without breaking anything (implicitly asserted by the
	// equality above and the absence of errors).
}

// cancelOnRecord cancels its context when the record for tenant at
// interval arrives.
type cancelOnRecord struct {
	tenant   string
	interval int
	cancel   context.CancelFunc
}

func (c cancelOnRecord) Record(r loop.DecisionRecord) {
	if r.Tenant == c.tenant && r.Interval == c.interval {
		c.cancel()
	}
}

// TestMultiTenantFinalizeCanceled cancels the run after every interval
// has been applied, just before finalisation: the run must still report
// the cancellation rather than a result, at any worker count.
func TestMultiTenantFinalizeCanceled(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		spec := MultiTenantSpec{
			Tenants: []TenantSpec{
				{ID: "a", Workload: workload.DS2(), Trace: trace.Trace1(12, 1), GoalMs: 60, Seed: 1},
				{ID: "b", Workload: workload.TPCC(), Trace: trace.Trace4(12, 2), GoalMs: 200, Seed: 2},
				{ID: "c", Workload: workload.DS2(), Trace: trace.Trace2(12, 3), GoalMs: 80, Seed: 3},
			},
			Servers:  2,
			Recorder: cancelOnRecord{tenant: "c", interval: 11, cancel: cancel},
		}
		res, err := NewRunner(WithParallelism(workers)).RunMultiTenant(ctx, spec)
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want ErrCanceled wrapping context.Canceled", workers, err)
		}
		if !reflect.DeepEqual(res, MultiTenantResult{}) {
			t.Errorf("workers=%d: canceled run returned a result: %+v", workers, res)
		}
	}
}
