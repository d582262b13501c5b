package sim

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"testing"

	"daasscale/internal/engine"
	"daasscale/internal/fabric"
	"daasscale/internal/faults"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// decideSplitSpec is a small cluster under combined telemetry faults and
// actuation chaos with auditing on — the most state the decide/apply split
// has to carry between phases (decisions, fault/actuation stat deltas,
// audit records).
func decideSplitSpec() MultiTenantSpec {
	mk := func(i int, w *workload.Workload, tr *trace.Trace, goal float64) TenantSpec {
		return TenantSpec{ID: string(rune('a' + i)), Workload: w, Trace: tr, GoalMs: goal, Seed: int64(i + 1)}
	}
	return MultiTenantSpec{
		Tenants: []TenantSpec{
			mk(0, workload.DS2(), trace.Trace1(90, 1), 60),
			mk(1, workload.TPCC(), trace.Trace4(90, 2), 200),
			mk(2, workload.CPUIO(workload.DefaultCPUIOConfig()), trace.Trace2(90, 3), 80),
			mk(3, workload.DS2(), trace.Trace3(70, 4), 90),
			mk(4, workload.TPCC(), trace.Trace1(90, 5), 150),
		},
		Servers:    2,
		Policy:     fabric.BestFit,
		EngineOpts: engine.Options{WarmStart: true},
		Faults:     faults.Uniform(0.15),
		Actuation:  actuationChaosConfig(),
		Audit:      true,
	}
}

// goldenDecideSplit is the sha256 of dumpExact over decideSplitSpec's full
// result, audit trails included. It was captured from the fully serial
// per-call-tick schedule (serial decide+apply over engine.Tick, one
// worker) before that schedule was deleted, so it is that schedule's
// output. dumpExact walks every field: adding one to the result types
// changes the hash, and the constant is then re-captured at the commit
// before the addition plus the new field's dump.
const goldenDecideSplit = "b835388caa862f91fe2ca57295ab2686ea8bc14ecc09a410b517f108cb750278"

// dumpExact writes v with every float in hexadecimal, so two dumps agree
// only if the values agree bit for bit. fmt's %x alone would not do: it
// prefers the rounding String methods of resource.Vector and the Stats
// types.
func dumpExact(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		fmt.Fprintf(w, "%x ", v.Float())
	case reflect.Int:
		fmt.Fprintf(w, "%d ", v.Int())
	case reflect.Bool:
		fmt.Fprintf(w, "%t ", v.Bool())
	case reflect.String:
		fmt.Fprintf(w, "%q ", v.String())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d ", v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpExact(w, v.Index(i))
		}
		io.WriteString(w, "] ")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dumpExact(w, v.Field(i))
		}
	default:
		panic("dumpExact: unhandled kind " + v.Kind().String())
	}
}

func hashExact(v any) string {
	h := sha256.New()
	dumpExact(h, reflect.ValueOf(v))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestClusterDecideSplitWorkerBitIdentity is the parallel-decide phase's
// worker-count property under combined faults + actuation chaos: fanning
// RunTicks+Decide across 1, 3 or 8 workers produces byte-identical cluster
// results, audit trails included — identical to each other and to the
// recorded output of the serial schedule.
func TestClusterDecideSplitWorkerBitIdentity(t *testing.T) {
	ctx := context.Background()
	var first MultiTenantResult
	for i, workers := range []int{1, 3, 8} {
		got, err := NewRunner(WithParallelism(workers)).RunMultiTenant(ctx, decideSplitSpec())
		if err != nil {
			t.Fatal(err)
		}
		if h := hashExact(got); h != goldenDecideSplit {
			t.Errorf("workers=%d: result hash %s, want golden %s", workers, h, goldenDecideSplit)
		}
		if i == 0 {
			first = got
			continue
		}
		if !reflect.DeepEqual(first, got) {
			for k := range first.Tenants {
				if !reflect.DeepEqual(first.Tenants[k], got.Tenants[k]) {
					t.Fatalf("workers=%d: tenant %s diverged from one worker:\nwant %+v\ngot %+v",
						workers, first.Tenants[k].ID, first.Tenants[k], got.Tenants[k])
				}
			}
			t.Fatalf("workers=%d: cluster totals diverged from one worker:\nwant %+v\ngot %+v",
				workers, first, got)
		}
	}
}

// TestClusterPhaseLabelsBitIdentical: pprof phase labelling is pure
// observability — it must not perturb results.
func TestClusterPhaseLabelsBitIdentical(t *testing.T) {
	ctx := context.Background()
	plain, err := NewRunner(WithParallelism(4)).RunMultiTenant(ctx, decideSplitSpec())
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := NewRunner(WithParallelism(4), WithPhaseLabels()).RunMultiTenant(ctx, decideSplitSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, labeled) {
		t.Fatal("phase labels changed cluster results")
	}
}
