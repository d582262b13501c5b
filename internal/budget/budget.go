// Package budget implements the budget manager (Section 5 of the paper):
// an online allocation of a tenant's budget B over a budgeting period of n
// billing intervals, adapted from the token-bucket algorithm used for
// traffic shaping in computer networks.
//
// The bucket has depth D (maximum burst), fill rate TR (tokens added per
// interval) and initial tokens TI. At any instant the tokens in the bucket
// are the available budget Bi for the next interval. Two initialization
// strategies are provided:
//
//   - Aggressive: TI = D = B − (n−1)·Cmin, TR = Cmin. The tenant can burst
//     immediately, at the risk of being pinned to the cheapest container if
//     a long burst drains the bucket early.
//   - Conservative: TI = K·Cmax, TR = (B − TI)/(n−1). Bursts early in the
//     period are limited to about K intervals of the most expensive
//     container plus saved surplus; more budget is preserved for later.
//
// Both settings guarantee ΣCi ≤ B and Bi ≥ Cmin for every interval,
// provided the caller never charges more than Available().
package budget

import (
	"fmt"
	"math"
)

// Strategy selects the token-bucket initialization.
type Strategy int

const (
	// Aggressive starts the period with a full bucket (TI = D).
	Aggressive Strategy = iota
	// Conservative starts with TI = K·Cmax and a correspondingly higher
	// fill rate, limiting early bursts.
	Conservative
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Aggressive:
		return "aggressive"
	case Conservative:
		return "conservative"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Manager allocates a budgeting-period budget across billing intervals.
type Manager struct {
	total      float64
	n          int
	cmin, cmax float64
	strategy   Strategy

	depth  float64 // D: bucket capacity (max burst)
	fill   float64 // TR: tokens added per interval
	tokens float64 // current bucket level = available budget Bi

	interval int
	spent    float64
}

// New creates a budget manager for budget total over n billing intervals,
// where cmin and cmax are the costs per interval of the cheapest and most
// expensive containers. k is used only by the Conservative strategy (the
// number of max-cost intervals the initial allocation permits); the service
// administrator sets it from production telemetry (the paper's guidance).
func New(strategy Strategy, total float64, n int, cmin, cmax float64, k int) (*Manager, error) {
	if n < 2 {
		return nil, fmt.Errorf("budget: budgeting period must span at least 2 intervals, got %d", n)
	}
	if cmin <= 0 || cmax < cmin {
		return nil, fmt.Errorf("budget: invalid container cost range [%v, %v]", cmin, cmax)
	}
	if total < float64(n)*cmin {
		return nil, fmt.Errorf("budget: total %v cannot cover %d intervals of the cheapest container (%v)", total, n, cmin)
	}
	m := &Manager{total: total, n: n, cmin: cmin, cmax: cmax, strategy: strategy}
	m.depth = total - float64(n-1)*cmin
	switch strategy {
	case Aggressive:
		m.fill = cmin
		m.tokens = m.depth
	case Conservative:
		if k < 1 {
			return nil, fmt.Errorf("budget: conservative strategy requires k ≥ 1, got %d", k)
		}
		ti := float64(k) * cmax
		if ti > m.depth {
			ti = m.depth // cannot start above the burst cap
		}
		if ti < cmin {
			ti = cmin
		}
		m.fill = (total - ti) / float64(n-1)
		if m.fill < cmin {
			// The fill rate must at least cover the cheapest container;
			// redistribute from the initial allocation.
			m.fill = cmin
			ti = total - float64(n-1)*cmin
		}
		m.tokens = ti
	default:
		return nil, fmt.Errorf("budget: unknown strategy %v", strategy)
	}
	return m, nil
}

// Unlimited returns a manager that never constrains spending (the paper's
// default when a tenant specifies no budget): Available is +Inf and Charge
// only tracks the total spent.
func Unlimited() *Manager {
	return &Manager{total: math.Inf(1), n: math.MaxInt32, tokens: math.Inf(1), depth: math.Inf(1)}
}

// Available returns Bi, the budget available for the next billing interval.
func (m *Manager) Available() float64 { return m.tokens }

// Charge records the cost of the interval just completed and refreshes the
// bucket for the next one. cost must not exceed the Available() value that
// was in force when the interval's container was chosen; violations are
// reported as an error (and clamped, so the invariant ΣCi ≤ B still holds
// in release use).
func (m *Manager) Charge(cost float64) error {
	var err error
	if cost > m.tokens+1e-9 {
		err = fmt.Errorf("budget: charge %v exceeds available %v", cost, m.tokens)
		cost = m.tokens
	}
	if cost < 0 {
		err = fmt.Errorf("budget: negative charge %v", cost)
		cost = 0
	}
	m.spent += cost
	m.tokens -= cost
	m.interval++
	if m.interval < m.n {
		m.tokens = math.Min(m.depth, m.tokens+m.fill)
	}
	return err
}

// Spent returns the total charged so far in the period.
func (m *Manager) Spent() float64 { return m.spent }
