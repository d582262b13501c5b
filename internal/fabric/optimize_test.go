package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// tightModel is an interference model on 100-unit nodes where a neighbor
// sum above 50 units starts inflating (ShareFrac 0.5), at 2× the
// overcommit: a 60-unit neighbor imposes ×1.4, a full 100-unit neighborhood
// ×3. A tenant alone is never inflated.
func tightModel() Contention {
	return Contention{
		Enable:       true,
		ShareFrac:    [NumPressureChannels]float64{0.5, 0.5, 0.5},
		Slope:        2,
		MaxInflation: 10,
	}
}

func contendedFabric(t *testing.T, servers int) *Fabric {
	t.Helper()
	f, err := New(servers, flatCap, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetContention(tightModel()); err != nil {
		t.Fatal(err)
	}
	return f
}

// applyPlan executes a plan against the fabric the way the cluster runner
// does — through Migrate — and validates after every move.
func applyPlan(t *testing.T, f *Fabric, plan Plan) {
	t.Helper()
	for _, mv := range plan.Moves {
		if err := f.Migrate(mv.Tenant, mv.To); err != nil {
			t.Fatalf("executing %+v: %v", mv, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("after %+v: %v", mv, err)
		}
	}
}

// TestRebalanceRestoresPredictedGoals: a 60- and a 40-unit tenant
// co-located on node 0 leave the smaller one predicted over goal while
// node 1 sits empty. The plan must separate them, and executing it must
// leave every tenant's predicted p95 within goal.
func TestRebalanceRestoresPredictedGoals(t *testing.T) {
	f := contendedFabric(t, 2)
	if err := f.Place("a", box("b40", 40)); err != nil {
		t.Fatal(err)
	}
	if err := f.Place("b", box("b40x", 40)); err != nil {
		t.Fatal(err)
	}
	// Grow a to 60 in place (80 + 20 delta fits the 100-unit node).
	if _, err := f.Resize("a", box("b60", 60)); err != nil {
		t.Fatal(err)
	}
	goals := []TenantGoal{
		{ID: "a", GoalMs: 100, BaselineP95Ms: 80},
		{ID: "b", GoalMs: 100, BaselineP95Ms: 80},
	}
	// a(60) + b(40) on node 0: a sees 40/50 = 0.8 (identity, within goal);
	// b sees 60/50 = 1.2 → inflation 1.4 → predicted 112 > 100: violated.
	plan := f.Rebalance(goals)
	if len(plan.Moves) == 0 {
		t.Fatal("rebalance planned no moves on a violated node")
	}
	applyPlan(t, f, plan)
	for _, g := range goals {
		inf, _, ok := f.TenantInflation(g.ID)
		if !ok {
			t.Fatalf("tenant %s unplaced after plan", g.ID)
		}
		if pred := g.BaselineP95Ms * inf.Max(); pred > g.GoalMs {
			t.Errorf("tenant %s predicted p95 %.1f still over goal %v", g.ID, pred, g.GoalMs)
		}
	}
	if f.Migrations() == 0 {
		t.Error("plan execution did not count fabric migrations")
	}
}

// TestRebalanceNoViolationNoMoves: loose goals never trigger moves, no
// matter the pressure.
func TestRebalanceNoViolationNoMoves(t *testing.T) {
	f := contendedFabric(t, 2)
	f.Place("a", box("b60", 60))
	f.Place("b", box("b40", 40))
	plan := f.Rebalance([]TenantGoal{
		{ID: "a", GoalMs: 10000, BaselineP95Ms: 80},
		{ID: "b", GoalMs: 10000, BaselineP95Ms: 80},
	})
	if len(plan.Moves) != 0 {
		t.Errorf("moves planned without violations: %+v", plan.Moves)
	}
	// Unconstrained tenants (no goal, no baseline) behave the same.
	plan = f.Rebalance([]TenantGoal{{ID: "a"}, {ID: "b"}})
	if len(plan.Moves) != 0 {
		t.Errorf("moves planned for unconstrained tenants: %+v", plan.Moves)
	}
}

// TestRebalanceRefusesHarmfulReceivers: the only alternative node hosts a
// fragile resident, so the planner must leave the violation in place
// rather than relocate it. The heavy mover a would push c over goal as a
// receiver-side resident; the violated tenant b would push itself over
// goal next to c. Neither move is legal.
func TestRebalanceRefusesHarmfulReceivers(t *testing.T) {
	f := contendedFabric(t, 2)
	f.Place("a", box("b60", 60))  // node 0
	f.Place("b", box("b40", 40))  // node 0: b violated (sees a's 60 → ×1.4)
	f.Place("c", box("b60c", 60)) // node 1 (node 0 is full)
	goals := []TenantGoal{
		// a tolerates any inflation here (baseline 10) but its 60 units
		// would inflate c past goal: c's 99 × 1.4 = 138.6 > 100.
		{ID: "a", GoalMs: 100, BaselineP95Ms: 10},
		// b would violate itself next to c: 80 × 1.4 = 112 > 100.
		{ID: "b", GoalMs: 100, BaselineP95Ms: 80},
		{ID: "c", GoalMs: 100, BaselineP95Ms: 99},
	}
	plan := f.Rebalance(goals)
	for _, mv := range plan.Moves {
		if mv.To == 1 {
			t.Errorf("planner moved %s onto the fragile node: %+v", mv.Tenant, mv)
		}
	}
}

// TestOptimizePacksFewestNodes: three small tenants spread over three
// nodes consolidate onto one when goals allow, and stay put when the
// co-location would break a goal.
func TestOptimizePacksFewestNodes(t *testing.T) {
	f := contendedFabric(t, 3)
	f.Place("a", box("b20a", 20))
	f.Place("b", box("b20b", 20))
	f.Place("c", box("b20c", 20))
	f.Migrate("b", 1)
	f.Migrate("c", 2)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	loose := []TenantGoal{
		{ID: "a", GoalMs: 10000, BaselineP95Ms: 50},
		{ID: "b", GoalMs: 10000, BaselineP95Ms: 50},
		{ID: "c", GoalMs: 10000, BaselineP95Ms: 50},
	}
	plan := f.Optimize(loose)
	if plan.NodesBefore != 3 || plan.NodesAfter != 1 {
		t.Fatalf("pack %d → %d nodes, want 3 → 1 (moves %+v)", plan.NodesBefore, plan.NodesAfter, plan.Moves)
	}
	applyPlan(t, f, plan)
	used := 0
	for _, s := range f.Servers() {
		if s.TenantCount() > 0 {
			used++
		}
	}
	if used != 1 {
		t.Errorf("tenants on %d nodes after executing the pack plan", used)
	}
}

func TestOptimizeRespectsGoals(t *testing.T) {
	f := contendedFabric(t, 2)
	f.Place("a", box("b40a", 40))
	f.Place("b", box("b40b", 40))
	f.Migrate("b", 1)
	// Co-locating the two 40s gives each a neighbor pressure of 40/50 = 0.8
	// → identity, so a pack IS allowed with these sizes; make them heavy
	// enough that co-location inflates (60 each: neighbor 60/50 = 1.2 →
	// ×1.4) and the goals forbid it.
	f.Resize("a", box("b60a", 60))
	f.Resize("b", box("b60b", 60))
	tight := []TenantGoal{
		{ID: "a", GoalMs: 100, BaselineP95Ms: 80},
		{ID: "b", GoalMs: 100, BaselineP95Ms: 80},
	}
	plan := f.Optimize(tight)
	if len(plan.Moves) != 0 {
		t.Errorf("pack planned goal-breaking moves: %+v", plan.Moves)
	}
}

// TestOptimizeCommitsOnlyFullDrains: a donor whose residents cannot all
// relocate contributes no moves at all — no half-drained nodes.
func TestOptimizeCommitsOnlyFullDrains(t *testing.T) {
	f := contendedFabric(t, 2)
	// Node 0: one 70-unit tenant. Node 1: 50 + 20. Draining node 0 fails
	// (70 doesn't fit next to 70 total on node 1); draining node 1 fails on
	// the 50 (50+70 > 100) even though the 20 would fit.
	f.Place("x", box("b70", 70))
	f.Place("y", box("b50", 50))
	f.Place("z", box("b20", 20))
	f.Migrate("y", 1)
	f.Migrate("z", 1)
	loose := []TenantGoal{{ID: "x"}, {ID: "y"}, {ID: "z"}}
	plan := f.Optimize(loose)
	if len(plan.Moves) != 0 {
		t.Errorf("partial drain escaped the rollback: %+v", plan.Moves)
	}
	if plan.NodesBefore != 2 || plan.NodesAfter != 2 {
		t.Errorf("node count %d → %d, want 2 → 2", plan.NodesBefore, plan.NodesAfter)
	}
}

// TestPlannersArePureAndDeterministic: planning never mutates the fabric,
// and the same state yields byte-identical plans every time.
func TestPlannersArePureAndDeterministic(t *testing.T) {
	f := contendedFabric(t, 3)
	f.Place("a", box("b60", 60))
	f.Place("b", box("b40", 40))
	f.Place("c", box("b20", 20))
	f.Migrate("c", 1)
	goals := []TenantGoal{
		{ID: "a", GoalMs: 100, BaselineP95Ms: 80},
		{ID: "b", GoalMs: 100, BaselineP95Ms: 80},
		{ID: "c", GoalMs: 100, BaselineP95Ms: 80},
	}
	before := map[string]int{}
	for id := range f.placement {
		before[id] = f.placement[id]
	}
	p1 := f.Rebalance(goals)
	p2 := f.Rebalance(goals)
	o1 := f.Optimize(goals)
	o2 := f.Optimize(goals)
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("Rebalance not deterministic: %+v vs %+v", p1, p2)
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Errorf("Optimize not deterministic: %+v vs %+v", o1, o2)
	}
	for id, idx := range before {
		if f.placement[id] != idx {
			t.Errorf("planning moved tenant %s: %d → %d", id, idx, f.placement[id])
		}
	}
	if f.Migrations() != 0 {
		t.Errorf("planning counted %d migrations", f.Migrations())
	}
}

func TestMigrateSemantics(t *testing.T) {
	f := contendedFabric(t, 2)
	f.Place("a", box("b60", 60))
	f.Place("b", box("b60b", 60)) // lands on node 1: node 0 lacks room
	if s, _ := f.ServerOf("b"); s.ID != 1 {
		t.Fatalf("fixture: b on node %d", s.ID)
	}
	// Same-node move: no-op, not counted.
	if err := f.Migrate("a", 0); err != nil {
		t.Errorf("same-node migrate errored: %v", err)
	}
	if f.Migrations() != 0 {
		t.Errorf("no-op move counted: %d", f.Migrations())
	}
	// Overfull destination: refused, wrapped in ErrRefused, not counted as
	// a resize refusal.
	err := f.Migrate("a", 1)
	if !errors.Is(err, ErrRefused) {
		t.Errorf("overfull migrate error = %v, want ErrRefused", err)
	}
	if f.Refusals() != 0 {
		t.Errorf("migrate refusal leaked into resize refusals: %d", f.Refusals())
	}
	// Unknown tenant / bad server.
	if err := f.Migrate("ghost", 0); err == nil || errors.Is(err, ErrRefused) {
		t.Errorf("unplaced migrate error = %v", err)
	}
	if err := f.Migrate("a", 7); err == nil {
		t.Error("out-of-range server accepted")
	}
}

// TestFabricInvariantUnderContentionChurn extends the churn property to
// the contention-era surface: randomized place/resize/remove interleaved
// with planner runs whose moves execute through Migrate, with the
// interference model installed. Validate must hold after every operation.
func TestFabricInvariantUnderContentionChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		policy := PlacementPolicy(rng.Intn(5))
		f, err := New(2+rng.Intn(3), serverCap, policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SetContention(Contention{
			Enable:       true,
			ShareFrac:    [NumPressureChannels]float64{0.2 + rng.Float64()*0.7, 0.2 + rng.Float64()*0.7, 0.2 + rng.Float64()*0.7},
			Slope:        rng.Float64() * 3,
			MaxInflation: 1 + rng.Float64()*5,
		}); err != nil {
			t.Fatal(err)
		}
		live := map[string]bool{}
		next := 0
		goals := func() []TenantGoal {
			var gs []TenantGoal
			for id := range live {
				gs = append(gs, TenantGoal{
					ID:            id,
					GoalMs:        50 + rng.Float64()*200,
					BaselineP95Ms: 20 + rng.Float64()*200,
				})
			}
			return gs
		}
		for op := 0; op < 200; op++ {
			switch rng.Intn(5) {
			case 0: // place
				id := fmt.Sprintf("t%d", next)
				next++
				if f.Place(id, cat.AtStep(rng.Intn(cat.LadderLen()))) == nil {
					live[id] = true
				}
			case 1: // resize
				for id := range live {
					f.Resize(id, cat.AtStep(rng.Intn(cat.LadderLen())))
					break
				}
			case 2: // remove
				for id := range live {
					if f.remove(id) == nil {
						delete(live, id)
					}
					break
				}
			case 3: // rebalance and execute
				for _, mv := range f.Rebalance(goals()).Moves {
					if err := f.Migrate(mv.Tenant, mv.To); err != nil && !errors.Is(err, ErrRefused) {
						t.Fatalf("trial %d op %d: migrate %+v: %v", trial, op, mv, err)
					}
				}
			case 4: // pack and execute
				for _, mv := range f.Optimize(goals()).Moves {
					if err := f.Migrate(mv.Tenant, mv.To); err != nil && !errors.Is(err, ErrRefused) {
						t.Fatalf("trial %d op %d: migrate %+v: %v", trial, op, mv, err)
					}
				}
			}
			if err := f.Validate(); err != nil {
				t.Fatalf("trial %d op %d (%v): %v", trial, op, policy, err)
			}
		}
	}
}
