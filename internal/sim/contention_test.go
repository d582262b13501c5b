package sim

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"daasscale/internal/engine"
	"daasscale/internal/fabric"
	"daasscale/internal/faults"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// contentionTenants is a cluster that packs densely enough to overcommit
// the shared channels: six tenants on two servers under FirstFit, so the
// early servers carry most of the allocation.
func contentionTenants() []TenantSpec {
	return []TenantSpec{
		{ID: "t0", Workload: workload.TPCC(), Trace: trace.Trace1(60, 1), GoalMs: 500},
		{ID: "t1", Workload: workload.DS2(), Trace: trace.Trace2(60, 2), GoalMs: 500},
		{ID: "t2", Workload: workload.DS2(), Trace: trace.Trace4(60, 3), GoalMs: 500},
		{ID: "t3", Workload: workload.TPCC(), Trace: trace.Trace2(60, 4), GoalMs: 500},
		{ID: "t4", Workload: workload.DS2(), Trace: trace.Trace1(60, 5), GoalMs: 500},
		{ID: "t5", Workload: workload.TPCC(), Trace: trace.Trace4(60, 6), GoalMs: 500},
	}
}

// TestClusterContentionWorkerBitIdentity is the PR's headline determinism
// property: with the interference model on, rebalancing active, telemetry
// faults and actuation chaos all at once, the cluster run is bit-identical
// at any worker count — node pressure is computed in the serial apply
// phase from the fabric's exact allocation sums, and the migration streams
// derive from tenant seeds, never from scheduling.
func TestClusterContentionWorkerBitIdentity(t *testing.T) {
	plan := faults.Uniform(0.15)
	plan.Seed = 3
	spec := MultiTenantSpec{
		Tenants:        contentionTenants(),
		Servers:        3,
		Policy:         fabric.FirstFit,
		EngineOpts:     engine.Options{WarmStart: true},
		Seed:           9,
		Faults:         plan,
		Actuation:      actuationChaosConfig(),
		Contention:     fabric.Contention{Enable: true},
		RebalanceEvery: 4,
		RebalancePack:  true,
	}
	serial, err := NewRunner(WithParallelism(1)).RunMultiTenant(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		par, err := NewRunner(WithParallelism(workers)).RunMultiTenant(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: contention cluster run differs from serial\nserial: %+v\nparallel: %+v",
				workers, serial, par)
		}
	}
	if serial.PeakWaitInflation <= 1 {
		t.Errorf("cluster never contended (peak inflation %v); the bit-identity property was not exercised",
			serial.PeakWaitInflation)
	}
}

// TestContentionInflatesWaits: the same overpacked cluster, contention on
// vs off. The model must inflate observed latency for tenants sharing the
// hot node and report above-identity inflation; with the model off the run
// must behave exactly as the historical additive fabric.
func TestContentionInflatesWaits(t *testing.T) {
	base := MultiTenantSpec{
		Tenants:    contentionTenants(),
		Servers:    2,
		Policy:     fabric.FirstFit,
		EngineOpts: engine.Options{WarmStart: true},
		Seed:       9,
	}
	off, err := NewRunner().RunMultiTenant(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	hot := base
	hot.Contention = fabric.Contention{Enable: true}
	on, err := NewRunner().RunMultiTenant(context.Background(), hot)
	if err != nil {
		t.Fatal(err)
	}

	if off.PeakWaitInflation != 1 {
		t.Errorf("model off: peak inflation %v, want exactly 1", off.PeakWaitInflation)
	}
	if on.PeakWaitInflation <= 1 {
		t.Fatalf("model on: cluster never contended (peak inflation %v); the fixture must overpack a node",
			on.PeakWaitInflation)
	}
	// Same placement decisions feed both runs' pressure, so at least one
	// tenant must observe a strictly higher run-level p95 under contention.
	inflated := 0
	for i, tr := range on.Tenants {
		if tr.P95Ms > off.Tenants[i].P95Ms {
			inflated++
		}
	}
	if inflated == 0 {
		t.Errorf("no tenant's p95 rose under contention (peak inflation %v)", on.PeakWaitInflation)
	}
	// Pressure is reported either way; inflation only with the model on.
	for i, n := range off.Nodes {
		if n.Inflation != fabric.NoInflation() {
			t.Errorf("model off: node %d reports inflation %v", i, n.Inflation)
		}
	}
}

// steadySpec builds the goal-restoration fixture: six steady-load tenants
// whose settled containers keep p95 comfortably under a 60 ms goal when
// each runs alone — interference, not capacity, is what pushes them over.
// Six servers under FirstFit: everyone lands on the early nodes during the
// warmup growth spurt and there is always an empty receiver for the
// rebalancer. The tight interference model makes two settled co-located
// tenants overcommit the shared channels.
func steadySpec() MultiTenantSpec {
	var tenants []TenantSpec
	for i := 0; i < 6; i++ {
		w := workload.TPCC()
		if i%2 == 1 {
			w = workload.DS2()
		}
		tenants = append(tenants, TenantSpec{
			ID:       fmt.Sprintf("t%d", i),
			Workload: w,
			Trace:    trace.Trace1(60, int64(i+1)).Scale(0.3),
			GoalMs:   60,
		})
	}
	return MultiTenantSpec{
		Tenants:    tenants,
		Servers:    6,
		Policy:     fabric.FirstFit,
		EngineOpts: engine.Options{WarmStart: true},
		Seed:       9,
		Audit:      true,
		Contention: fabric.Contention{
			Enable:       true,
			ShareFrac:    [fabric.NumPressureChannels]float64{0.10, 0.10, 0.10},
			Slope:        1.5,
			MaxInflation: 4,
		},
	}
}

// lastContended returns the latest interval at which any tenant's audit
// record carries an above-identity wait-inflation stamp (−1 if none), and
// the number of such records.
func lastContended(r MultiTenantResult) (last, count int) {
	last = -1
	for _, tr := range r.Tenants {
		for _, rec := range tr.Audit {
			if rec.WaitInflation.Max() > 1 {
				count++
				if rec.Interval > last {
					last = rec.Interval
				}
			}
		}
	}
	return last, count
}

// TestRebalanceRestoresGoals is the PR's headline behavior property: an
// over-packed node measurably inflates its residents' waits, and the
// goal-preserving rebalancer clears the interference for good — every
// tenant's settled p95 back within goal — via migrations executed through
// the fabric. Without the rebalancer the same cluster stays contended deep
// into the run.
func TestRebalanceRestoresGoals(t *testing.T) {
	base := steadySpec()
	stuck, err := NewRunner().RunMultiTenant(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if stuck.PeakWaitInflation <= 1 {
		t.Fatalf("fixture never contends (peak inflation %v); rebalance has nothing to fix", stuck.PeakWaitInflation)
	}
	if stuck.RebalanceMigrations != 0 {
		t.Fatalf("rebalancer disabled yet %d rebalance migrations counted", stuck.RebalanceMigrations)
	}
	stuckLast, stuckCount := lastContended(stuck)
	if stuckLast < 30 {
		t.Fatalf("unbalanced cluster decongested by itself at interval %d (%d contended records); fixture too weak",
			stuckLast, stuckCount)
	}
	// Every record that carries material inflation must also carry the
	// policy's interference explanation — latency slack attributed to
	// neighbors, not to under-provisioning.
	for _, tr := range stuck.Tenants {
		for _, rec := range tr.Audit {
			if rec.WaitInflation.Max() < 1.05 {
				continue
			}
			found := false
			for _, e := range rec.Explanations {
				if strings.Contains(e, "contention:") {
					found = true
				}
			}
			if !found {
				t.Fatalf("tenant %s interval %d: inflation %v without a contention explanation (%q)",
					tr.ID, rec.Interval, rec.WaitInflation.Max(), rec.Explanations)
			}
		}
	}

	balanced := base
	balanced.RebalanceEvery = 5
	reb, err := NewRunner().RunMultiTenant(context.Background(), balanced)
	if err != nil {
		t.Fatal(err)
	}
	if reb.RebalanceMigrations == 0 {
		t.Fatal("rebalancer planned no executed moves on an overcommitted cluster")
	}
	sum := 0
	for _, tr := range reb.Tenants {
		sum += tr.RebalanceMigrations
	}
	if sum != reb.RebalanceMigrations {
		t.Errorf("per-tenant rebalance migrations sum %d != cluster total %d", sum, reb.RebalanceMigrations)
	}
	if reb.Migrations < reb.RebalanceMigrations {
		t.Errorf("fabric migrations %d < rebalance migrations %d (rebalance moves must route through the fabric)",
			reb.Migrations, reb.RebalanceMigrations)
	}
	rebLast, _ := lastContended(reb)
	if rebLast >= 30 {
		t.Errorf("rebalanced cluster still contended at interval %d (stuck run: %d); the optimizer did not clear the interference",
			rebLast, stuckLast)
	}
	// The headline: once rebalanced, every tenant's settled-tail p95 is
	// within its goal.
	for _, tr := range reb.Tenants {
		worst := 0.0
		for _, rec := range tr.Audit {
			if rec.Interval >= 45 && rec.Snapshot.P95LatencyMs > worst {
				worst = rec.Snapshot.P95LatencyMs
			}
		}
		if goal := base.Tenants[0].GoalMs; worst > goal {
			t.Errorf("tenant %s settled p95 %.1f ms exceeds the %v ms goal after rebalancing", tr.ID, worst, goal)
		}
	}
}

// TestRebalanceActuatedChargesAndRetries: on the actuated path every
// executed move flows through the migration actuation channel — failures
// retry, and executed moves are still counted per tenant.
func TestRebalanceActuatedChargesAndRetries(t *testing.T) {
	spec := steadySpec()
	spec.RebalanceEvery = 5
	spec.Actuation = actuationChaosConfig()
	res, err := NewRunner().RunMultiTenant(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.RebalanceMigrations == 0 {
		t.Fatal("no rebalance move landed through the chaotic actuation channel")
	}
	if res.Migrations < res.RebalanceMigrations {
		t.Errorf("fabric migrations %d < rebalance migrations %d", res.Migrations, res.RebalanceMigrations)
	}
}

// dumpMultiTenantContention extends the golden dump with the contention
// surface: per-tenant rebalance moves, the cluster peak inflation, and the
// per-node end-state report. The historical dumpMultiTenant fields stay
// untouched so the two suites cannot drift apart silently.
func dumpMultiTenantContention(b *strings.Builder, r MultiTenantResult) {
	dumpMultiTenant(b, r)
	fmt.Fprintf(b, "contention{rebalanced=%d peakinfl=%s\n", r.RebalanceMigrations, fx(r.PeakWaitInflation))
	for _, tr := range r.Tenants {
		fmt.Fprintf(b, "treb{%s %d}\n", tr.ID, tr.RebalanceMigrations)
	}
	for _, n := range r.Nodes {
		fmt.Fprintf(b, "node{%d %d", n.Node, n.Tenants)
		for _, v := range n.Utilization {
			b.WriteString(" " + fx(v))
		}
		for _, v := range n.Pressure {
			b.WriteString(" " + fx(v))
		}
		for _, v := range n.Inflation {
			b.WriteString(" " + fx(v))
		}
		b.WriteString("}\n")
	}
	b.WriteString("}\n")
}

// goldenContention pins the contention-enabled cluster outputs, captured
// at the PR that introduced the interference model. Like
// goldenEquivalence: recapture only for an intentional, documented
// behavior change (set printGoldens and paste).
var goldenContention = map[string]string{
	"contention/clean": "b09beb3e6d596612d3f45cc9b3bcf18f9c5592bc4ecba5de28e57784e6afc872",
	"contention/chaos": "89ec3949cc3a1f5529ae77d69fc728a3fc6e0a2b5bf3154d19796f3509e604d2",
}

// TestContentionGolden extends the golden equivalence suite with the
// interference model on: contention + rebalancing, clean and under
// combined faults + actuation chaos, serial vs parallel — pinned bit for
// bit. (The zero-contention cells stay pinned by TestEquivalenceGolden,
// which is the "today's outputs reproduce exactly" half of the contract.)
func TestContentionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden contention matrix is not a -short test")
	}
	run := func(t *testing.T, kind string, workers int) string {
		t.Helper()
		plan, act := equivalenceChaos("multitenant", kind)
		res, err := NewRunner(WithParallelism(workers)).RunMultiTenant(context.Background(), MultiTenantSpec{
			Tenants:        equivalenceTenants(),
			Servers:        2,
			Seed:           9,
			Faults:         plan,
			Actuation:      act,
			Contention:     fabric.Contention{Enable: true},
			RebalanceEvery: 5,
			RebalancePack:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return hashDump(func(b *strings.Builder) { dumpMultiTenantContention(b, res) })
	}
	for _, kind := range []string{"clean", "chaos"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			key := "contention/" + kind
			serial := run(t, kind, 1)
			parallel := run(t, kind, 4)
			if serial != parallel {
				t.Fatalf("%s: serial %s != parallel %s", key, serial, parallel)
			}
			want := goldenContention[key]
			if want == "" || printGoldens {
				t.Errorf("golden %q: %q,", key, serial)
				return
			}
			if serial != want {
				t.Errorf("%s: hash %s, want golden %s (contention behavior drift)", key, serial, want)
			}
		})
	}
}
