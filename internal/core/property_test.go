package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"daasscale/internal/budget"
	"daasscale/internal/estimator"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// TestAutoScalerInvariantsProperty drives the controller with arbitrary
// telemetry sequences and asserts the safety invariants that must hold no
// matter what the signals say:
//
//   - the selected container always comes from the catalog,
//   - the budget is never exceeded and the chosen container is affordable,
//   - container steps move by bounded amounts per interval,
//   - the controller never panics.
func TestAutoScalerInvariantsProperty(t *testing.T) {
	f := func(seed int64, budgeted bool, goalSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const intervals = 120
		var bud *budget.Manager
		var total float64
		if budgeted {
			total = float64(intervals)*cat.Smallest().Cost + rng.Float64()*5000
			var err error
			bud, err = budget.New(budget.Aggressive, total, intervals, cat.Smallest().Cost, cat.Largest().Cost, 0)
			if err != nil {
				return false
			}
		}
		goal := LatencyGoal{}
		switch goalSel % 3 {
		case 1:
			goal = LatencyGoal{GoalP95, 50 + rng.Float64()*400}
		case 2:
			goal = LatencyGoal{GoalAvg, 50 + rng.Float64()*400}
		}
		a, err := New(Config{
			Catalog:     cat,
			Initial:     cat.AtStep(rng.Intn(cat.LadderLen())),
			Goal:        goal,
			Budget:      bud,
			Sensitivity: estimator.Sensitivity(rng.Intn(3)),
		})
		if err != nil {
			return false
		}
		prevStep := a.Container().Step
		for i := 0; i < intervals; i++ {
			// Arbitrary, possibly absurd telemetry.
			c := a.Container()
			var s telemetry.Snapshot
			s.Interval = i
			s.Container = c.Name
			s.Step = c.Step
			s.Cost = c.Cost
			for _, k := range resource.Kinds {
				s.Utilization[k] = rng.Float64()
			}
			for wc := range s.WaitMs {
				if rng.Float64() < 0.4 {
					s.WaitMs[wc] = rng.Float64() * 5e6
				}
			}
			s.AvgLatencyMs = rng.Float64() * 2000
			s.P95LatencyMs = s.AvgLatencyMs * (1 + rng.Float64()*2)
			s.OfferedRPS = rng.Float64() * 800
			s.Transactions = s.OfferedRPS * 60
			s.MemoryUsedMB = rng.Float64() * 70000
			s.PhysicalReads = rng.Float64() * 1e5

			d := a.Observe(s)
			got := a.Container()
			if _, ok := cat.ByName(got.Name); !ok {
				t.Logf("container %q not in catalog", got.Name)
				return false
			}
			if bud != nil && got.Cost > d.BudgetAvailable+1e-9 && d.BudgetAvailable >= cat.Smallest().Cost {
				t.Logf("interval %d: cost %v exceeds available %v", i, got.Cost, d.BudgetAvailable)
				return false
			}
			if diff := got.Step - prevStep; diff > 2 || (diff < -1 && !d.BudgetConstrained) {
				// Upward moves are bounded by the estimator's 2-step cap;
				// downward moves by one step, except a budget-forced
				// downgrade which may drop several steps at once.
				t.Logf("interval %d: step jumped by %d", i, diff)
				return false
			}
			prevStep = got.Step
		}
		if bud != nil && bud.Spent() > total+1e-6 {
			t.Logf("budget exceeded: %v > %v", bud.Spent(), total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
