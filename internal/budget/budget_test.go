package budget

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStrategyString(t *testing.T) {
	if Aggressive.String() != "aggressive" || Conservative.String() != "conservative" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() != "strategy(9)" {
		t.Error("unknown strategy name wrong")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Aggressive, 100, 1, 7, 270, 1); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := New(Aggressive, 100, 10, 0, 270, 1); err == nil {
		t.Error("cmin=0 should fail")
	}
	if _, err := New(Aggressive, 100, 10, 7, 5, 1); err == nil {
		t.Error("cmax<cmin should fail")
	}
	if _, err := New(Aggressive, 50, 10, 7, 270, 1); err == nil {
		t.Error("budget below n*cmin should fail")
	}
	if _, err := New(Conservative, 1000, 10, 7, 270, 0); err == nil {
		t.Error("conservative k=0 should fail")
	}
	if _, err := New(Strategy(7), 1000, 10, 7, 270, 1); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestAggressiveInitialization(t *testing.T) {
	// Paper: TR = Cmin, D = B − (n−1)·Cmin, TI = D.
	m, err := New(Aggressive, 1000, 10, 7, 270, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantDepth := 1000 - 9*7.0
	if m.depth != wantDepth {
		t.Errorf("depth = %v, want %v", m.depth, wantDepth)
	}
	if m.fill != 7 {
		t.Errorf("fill = %v, want 7", m.fill)
	}
	if m.Available() != wantDepth {
		t.Errorf("initial tokens = %v, want full bucket %v", m.Available(), wantDepth)
	}
}

func TestConservativeInitialization(t *testing.T) {
	// TI = K·Cmax, TR = (B − TI)/(n−1).
	m, err := New(Conservative, 2000, 11, 7, 270, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Available() != 540 {
		t.Errorf("initial tokens = %v, want 540", m.Available())
	}
	if got, want := m.fill, (2000.0-540)/10; math.Abs(got-want) > 1e-9 {
		t.Errorf("fill = %v, want %v", got, want)
	}
}

func TestConservativeClampsInitialTokens(t *testing.T) {
	// K·Cmax above the burst cap must clamp to D.
	m, err := New(Conservative, 200, 10, 7, 270, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Available() > m.depth {
		t.Errorf("initial tokens %v above depth %v", m.Available(), m.depth)
	}
	// Fill must still cover the cheapest container.
	if m.fill < 7 {
		t.Errorf("fill %v below cmin", m.fill)
	}
}

func TestBudgetNeverExceededAggressive(t *testing.T) {
	// Greedy spender: always uses the most expensive affordable container.
	const B, n = 1000.0, 20
	m, err := New(Aggressive, B, n, 7, 270, 0)
	if err != nil {
		t.Fatal(err)
	}
	costs := []float64{7, 15, 30, 45, 60, 90, 120, 160, 200, 240, 270}
	for i := 0; i < n; i++ {
		avail := m.Available()
		if avail < 7-1e-9 {
			t.Fatalf("interval %d: available %v below cmin", i, avail)
		}
		spend := 7.0
		for _, c := range costs {
			if c <= avail {
				spend = c
			}
		}
		if err := m.Charge(spend); err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
	}
	if m.Spent() > B+1e-9 {
		t.Errorf("spent %v exceeds budget %v", m.Spent(), B)
	}
	if m.interval != n {
		t.Errorf("intervals = %d", m.interval)
	}
}

func TestSustainedBurstDrainsToCmin(t *testing.T) {
	// The paper's aggressive-case analysis: a sustained burst of the
	// largest container empties the bucket after about m intervals, after
	// which only the cheapest container is affordable.
	const B, n = 1000.0, 50
	m, _ := New(Aggressive, B, n, 7, 270, 0)
	drainedAt := -1
	for i := 0; i < n; i++ {
		avail := m.Available()
		spend := 7.0
		if avail >= 270 {
			spend = 270
		}
		if spend == 7 && drainedAt < 0 {
			drainedAt = i
		}
		m.Charge(spend)
	}
	if drainedAt < 2 || drainedAt > 5 {
		// m ≈ (B − (n−m)·Cmin)/Cmax ≈ (1000 − 47·7)/270 ≈ 2.5 → drained by
		// the 3rd–4th interval.
		t.Errorf("bucket drained at interval %d, want ≈3", drainedAt)
	}
	if m.Spent() > B+1e-9 {
		t.Errorf("spent %v exceeds budget", m.Spent())
	}
}

func TestConservativeLimitsEarlyBurst(t *testing.T) {
	const B, n = 2000.0, 40
	agg, _ := New(Aggressive, B, n, 7, 270, 0)
	con, _ := New(Conservative, B, n, 7, 270, 2)
	burst := func(m *Manager, intervals int) float64 {
		var total float64
		for i := 0; i < intervals; i++ {
			avail := m.Available()
			spend := 7.0
			if avail >= 270 {
				spend = 270
			}
			total += spend
			m.Charge(spend)
		}
		return total
	}
	a := burst(agg, 5)
	c := burst(con, 5)
	if c >= a {
		t.Errorf("conservative early burst %v should be below aggressive %v", c, a)
	}
	// Conservative initial allocation permits about K=2 max intervals.
	if c > 2*270+5*7+200 {
		t.Errorf("conservative burst %v too generous", c)
	}
}

func TestChargeErrors(t *testing.T) {
	m, _ := New(Aggressive, 200, 10, 7, 270, 0)
	if err := m.Charge(1e6); err == nil {
		t.Error("overcharge should error")
	}
	if m.Spent() > 200 {
		t.Errorf("overcharge must be clamped: spent %v", m.Spent())
	}
	if err := m.Charge(-5); err == nil {
		t.Error("negative charge should error")
	}
}

func TestUnlimited(t *testing.T) {
	m := Unlimited()
	if !math.IsInf(m.Available(), 1) {
		t.Errorf("unlimited available = %v", m.Available())
	}
	for i := 0; i < 100; i++ {
		if err := m.Charge(270); err != nil {
			t.Fatalf("unlimited charge: %v", err)
		}
	}
	if m.Spent() != 27000 {
		t.Errorf("spent = %v", m.Spent())
	}
	if !math.IsInf(m.Available(), 1) {
		t.Error("unlimited should never drain")
	}
}

func TestBudgetInvariantProperty(t *testing.T) {
	// For any random admissible spending sequence under either strategy:
	// ΣCi ≤ B and Bi ≥ Cmin at every decision point.
	f := func(seed int64, conservative bool) bool {
		rng := rand.New(rand.NewSource(seed))
		const cmin, cmax = 7.0, 270.0
		n := 10 + rng.Intn(50)
		total := float64(n)*cmin + rng.Float64()*3000
		var m *Manager
		var err error
		if conservative {
			m, err = New(Conservative, total, n, cmin, cmax, 1+rng.Intn(4))
		} else {
			m, err = New(Aggressive, total, n, cmin, cmax, 0)
		}
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			avail := m.Available()
			if avail < cmin-1e-9 {
				return false
			}
			spend := cmin + rng.Float64()*(math.Min(avail, cmax)-cmin)
			if m.Charge(spend) != nil {
				return false
			}
		}
		return m.Spent() <= total+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRemaining(t *testing.T) {
	m, _ := New(Aggressive, 500, 10, 7, 270, 0)
	m.Charge(100)
	if got := m.total - m.spent; got != 400 {
		t.Errorf("remaining = %v", got)
	}
}
