package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"daasscale/internal/resource"
)

// packingCluster builds the 1k-tenant packing fixture: tenants with
// per-dimension random sizes placed by policy onto a large cluster under the
// default interference model, every goal set 25% above its contention-free
// baseline — so a packed node (inflation ≈2x) violates every resident and a
// spread cluster violates none.
func packingCluster(t *testing.T, tenants, servers int, policy PlacementPolicy) (*Fabric, []TenantGoal) {
	t.Helper()
	f, err := New(servers, resource.Vector{400, 400, 400, 400}, policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetContention(Contention{Enable: true}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	goals := make([]TenantGoal, 0, tenants)
	for i := 0; i < tenants; i++ {
		// Quarter-unit sizes stay exactly representable, so the fabric's
		// incremental allocation cache matches Validate's recomputed sums
		// bit-for-bit across hundreds of migrations.
		var alloc resource.Vector
		for d := range alloc {
			alloc[d] = 15 + math.Floor(rng.Float64()*140)/4
		}
		id := fmt.Sprintf("tenant-%04d", i)
		if err := f.Place(id, resource.Container{Name: "bench", Alloc: alloc, Cost: 1}); err != nil {
			t.Fatal(err)
		}
		baseline := 40 + rng.Float64()*20
		goals = append(goals, TenantGoal{ID: id, GoalMs: baseline * 1.25, BaselineP95Ms: baseline})
	}
	return f, goals
}

// predictedViolations counts tenants whose baseline p95, inflated by the
// interference their current neighbors impose, exceeds their goal.
func predictedViolations(t *testing.T, f *Fabric, goals []TenantGoal) int {
	t.Helper()
	n := 0
	for _, g := range goals {
		inf, _, ok := f.TenantInflation(g.ID)
		if !ok {
			t.Fatalf("%s not placed", g.ID)
		}
		if g.BaselineP95Ms*inf.Max() > g.GoalMs {
			n++
		}
	}
	return n
}

// executePlan migrates every move of plan, then validates the fabric once.
func executePlan(t *testing.T, f *Fabric, plan Plan) {
	t.Helper()
	for _, mv := range plan.Moves {
		if err := f.Migrate(mv.Tenant, mv.To); err != nil {
			t.Fatalf("executing %+v: %v", mv, err)
		}
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPacking1kTenants is the packing-quality check at scale. On a
// 1000-tenant FirstFit-packed cluster where most residents' predicted p95
// violates its goal, Rebalance must plan migrations that leave zero
// predicted violations. On the same tenants WorstFit-spread across the
// cluster, Optimize must consolidate them onto fewer nodes, at most 2x the
// capacity lower bound. At seed 42 that is 985 → 0 violations and 320 → 86
// nodes against a bound of 82.
func TestPacking1kTenants(t *testing.T) {
	const tenants, servers = 1000, 320

	f, goals := packingCluster(t, tenants, servers, FirstFit)
	before := predictedViolations(t, f, goals)
	if before < tenants/2 {
		t.Fatalf("fixture too loose: only %d/%d tenants violated before rebalancing", before, tenants)
	}
	plan := f.Rebalance(goals)
	executePlan(t, f, plan)
	if after := predictedViolations(t, f, goals); after > 0 {
		t.Fatalf("rebalancing left %d predicted violations (was %d, %d moves)", after, before, len(plan.Moves))
	}

	g, loose := packingCluster(t, tenants, servers, WorstFit)
	var total resource.Vector
	for i := range loose {
		c, _ := g.container(loose[i].ID)
		total = total.Add(c.Alloc)
		loose[i].GoalMs = 0 // no latency constraint: pure bin packing
	}
	lowerBound := 0
	for _, k := range resource.Kinds {
		if lb := int(math.Ceil(total[k] / 400)); lb > lowerBound {
			lowerBound = lb
		}
	}
	packPlan := g.Optimize(loose)
	executePlan(t, g, packPlan)
	nodesUsed := 0
	for _, s := range g.Servers() {
		if s.TenantCount() > 0 {
			nodesUsed++
		}
	}
	if nodesUsed >= packPlan.NodesBefore {
		t.Fatalf("optimizer did not consolidate: %d nodes before, %d after", packPlan.NodesBefore, nodesUsed)
	}
	if nodesUsed > 2*lowerBound {
		t.Fatalf("packing quality regressed: %d nodes used, capacity lower bound %d", nodesUsed, lowerBound)
	}
	t.Logf("rebalance %d -> 0 violations in %d moves; optimize %d -> %d nodes (lower bound %d)",
		before, len(plan.Moves), packPlan.NodesBefore, nodesUsed, lowerBound)
}
