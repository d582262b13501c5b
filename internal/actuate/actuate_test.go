package actuate

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestActuationConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config must be disabled")
	}
	for _, c := range []Config{
		{Enable: true},
		{LatencyIntervals: 1},
		{JitterIntervals: 2},
		{FailRate: 0.1},
		{ThrottleRate: 0.1},
		{BurstLen: 3},
	} {
		if !c.Enabled() {
			t.Errorf("config %+v must be enabled", c)
		}
	}
	// Limits-only knobs do not enable the channel on their own.
	if (Config{MaxAttempts: 3, BackoffIntervals: 2, DeadlineIntervals: 5}).Enabled() {
		t.Error("retry/deadline knobs alone must not enable actuation")
	}
}

func TestActuationConfigValidate(t *testing.T) {
	if err := (Config{FailRate: 0.5, ThrottleRate: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, c := range []Config{
		{FailRate: -0.1},
		{FailRate: 1.5},
		{ThrottleRate: 2},
		{LatencyIntervals: -1},
		{MaxAttempts: -2},
		{DeadlineIntervals: -1},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v must be rejected", c)
		}
	}
}

// TestActuationZeroLatencyAppliesSameInterval: an Enable-only channel is
// perfect — the desired target lands in the very interval it was
// submitted, exactly like the synchronous path.
func TestActuationZeroLatencyAppliesSameInterval(t *testing.T) {
	a := New(Config{Enable: true}, 1, "small")
	got := "small"
	a.Submit("large")
	if err := a.Step(0, func(s string) error { got = s; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != "large" || !a.Settled() {
		t.Fatalf("got %q, settled %v; want large, settled", got, a.Settled())
	}
	st := a.Stats()
	if st.Applied != 1 || st.Attempts != 1 || st.Ops != 1 || st.MaxEffectIntervals != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestActuationLatencyDelaysEffect: with latency L, the target applies
// exactly L intervals after the operation opened.
func TestActuationLatencyDelaysEffect(t *testing.T) {
	a := New(Config{LatencyIntervals: 3}, 1, "small")
	got := "small"
	a.Submit("large")
	for i := 0; i < 5; i++ {
		if err := a.Step(i, func(s string) error { got = s; return nil }); err != nil {
			t.Fatal(err)
		}
		want := "small"
		if i >= 3 {
			want = "large"
		}
		if got != want {
			t.Fatalf("interval %d: actual %q, want %q", i, got, want)
		}
	}
	st := a.Stats()
	if st.Applied != 1 || st.SumEffectIntervals != 3 || st.MaxEffectIntervals != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestActuationSubmitIdempotent: re-issuing the current desire every
// interval — what a level-triggered controller does — opens one op.
func TestActuationSubmitIdempotent(t *testing.T) {
	a := New(Config{LatencyIntervals: 4}, 1, "small")
	got := "small"
	for i := 0; i < 10; i++ {
		a.Submit("large")
		if err := a.Step(i, func(s string) error { got = s; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Submitted != 1 || st.Ops != 1 || st.Applied != 1 {
		t.Fatalf("stats %+v", st)
	}
	if got != "large" {
		t.Fatalf("actual %q", got)
	}
}

// TestActuationSupersede: a new desire abandons the in-flight operation —
// the stale resize is never applied — and a desire that returns to the
// actual state cancels actuation entirely.
func TestActuationSupersede(t *testing.T) {
	a := New(Config{LatencyIntervals: 5}, 1, "small")
	var applied []string
	exec := func(s string) error { applied = append(applied, s); return nil }

	a.Submit("medium")
	if err := a.Step(0, exec); err != nil {
		t.Fatal(err)
	}
	a.Submit("large") // supersedes the medium resize mid-flight
	for i := 1; i < 10; i++ {
		if err := a.Step(i, exec); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(applied, []string{"large"}) {
		t.Fatalf("applied %v, want only large", applied)
	}
	if st := a.Stats(); st.Superseded != 1 || st.Applied != 1 {
		t.Fatalf("stats %+v", st)
	}

	// Desire moves back to the actual state: the in-flight op is
	// superseded and nothing further is applied.
	a.Submit("medium")
	if err := a.Step(10, exec); err != nil {
		t.Fatal(err)
	}
	a.Submit("large")
	for i := 11; i < 20; i++ {
		if err := a.Step(i, exec); err != nil {
			t.Fatal(err)
		}
	}
	if len(applied) != 1 {
		t.Fatalf("applied %v, want no second apply", applied)
	}
	if !a.Settled() {
		t.Error("actuator must settle once desired == actual")
	}
}

// TestActuationRetryBackoff: with FailRate 1 every attempt fails; the
// attempt spacing follows capped exponential backoff and the operation
// expires after MaxAttempts, after which reconciliation re-issues it.
func TestActuationRetryBackoff(t *testing.T) {
	cfg := Config{FailRate: 1, MaxAttempts: 3, BackoffIntervals: 1, BackoffCap: 4}
	a := New(cfg, 7, "small")
	a.Submit("large")
	var attempts []int
	for i := 0; i < 40; i++ {
		before := a.Stats().Attempts
		if err := a.Step(i, func(string) error {
			t.Fatal("apply must never be reached at FailRate 1")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if a.Stats().Attempts > before {
			attempts = append(attempts, i)
		}
	}
	st := a.Stats()
	if st.Applied != 0 || st.TransientFailures != st.Attempts {
		t.Fatalf("stats %+v", st)
	}
	if st.Ops < 2 || st.Expired < 1 {
		t.Fatalf("expired ops must be re-issued by reconciliation: %+v", st)
	}
	if st.Retries == 0 || st.Retries > st.Attempts {
		t.Fatalf("retries %d out of range (attempts %d)", st.Retries, st.Attempts)
	}
	// Backoff grows: the gap between consecutive attempts of one op is
	// base<<k (+jitter ≤ 1) and never exceeds cap+1.
	for i := 1; i < len(attempts); i++ {
		gap := attempts[i] - attempts[i-1]
		if gap < 1 || gap > cfg.BackoffCap+1 {
			t.Fatalf("attempt gap %d outside [1, cap+1]: %v", gap, attempts)
		}
	}
}

// TestActuationDeadlineExpiresOp: a retry that would land past the
// operation's deadline expires the operation instead.
func TestActuationDeadlineExpiresOp(t *testing.T) {
	a := New(Config{FailRate: 1, DeadlineIntervals: 3, MaxAttempts: 100}, 3, "small")
	a.Submit("large")
	for i := 0; i < 30; i++ {
		if err := a.Step(i, func(string) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Expired == 0 {
		t.Fatalf("deadline never expired an op: %+v", st)
	}
	if st.Applied != 0 {
		t.Fatalf("nothing must apply at FailRate 1: %+v", st)
	}
}

// TestActuationThrottleBurstConverges is the acceptance scenario: a 100%
// throttle burst stalls every attempt; once it lifts, reconciliation
// applies the final desired target exactly once.
func TestActuationThrottleBurstConverges(t *testing.T) {
	a := New(Config{
		LatencyIntervals:  1,
		BurstStart:        0,
		BurstLen:          20,
		DeadlineIntervals: 4, // ops expire repeatedly during the burst
	}, 11, "small")
	var applied []string
	a.Submit("large")
	for i := 0; i < 40; i++ {
		if err := a.Step(i, func(s string) error { applied = append(applied, s); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(applied, []string{"large"}) {
		t.Fatalf("applied %v, want exactly one large apply after the burst", applied)
	}
	st := a.Stats()
	if st.Throttled == 0 || st.Expired == 0 || st.Ops < 2 {
		t.Fatalf("burst must throttle and expire ops before converging: %+v", st)
	}
	if !a.Settled() {
		t.Error("actuator must settle after the burst lifts")
	}
}

// TestActuationRefusedRetriesThenSupersedes: executor refusals count as
// refused attempts, retry, and stop once the desire is superseded.
func TestActuationRefusedRetriesThenSupersedes(t *testing.T) {
	a := New(Config{Enable: true, MaxAttempts: 100}, 5, "small")
	refuse := func(string) error { return fmt.Errorf("no room: %w", ErrRefused) }
	a.Submit("large")
	for i := 0; i < 20; i++ {
		if err := a.Step(i, refuse); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Refused == 0 || st.Applied != 0 {
		t.Fatalf("stats %+v", st)
	}
	a.Submit("small") // back to actual: reconciliation has nothing to do
	if err := a.Step(20, refuse); err != nil {
		t.Fatal(err)
	}
	if !a.Settled() {
		t.Error("superseding to the actual state must settle the actuator")
	}
}

// TestActuationExecutorErrorPropagates: a non-refusal executor error
// aborts the Step instead of being swallowed as a retry.
func TestActuationExecutorErrorPropagates(t *testing.T) {
	a := New(Config{Enable: true}, 5, "small")
	boom := errors.New("fabric wedged")
	a.Submit("large")
	if err := a.Step(0, func(string) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestActuationDeterministicStats: identical configs and seeds reproduce
// identical operation histories; a different seed diverges.
func TestActuationDeterministicStats(t *testing.T) {
	cfg := Config{LatencyIntervals: 2, JitterIntervals: 2, FailRate: 0.4, ThrottleRate: 0.2, Seed: 9}
	run := func(streamSeed int64) (Stats, []string) {
		a := New(cfg, streamSeed, "s0")
		var applied []string
		for i := 0; i < 200; i++ {
			if i%7 == 0 {
				a.Submit(fmt.Sprintf("s%d", (i/7)%4))
			}
			if err := a.Step(i, func(s string) error { applied = append(applied, s); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		return a.Stats(), applied
	}
	s1, a1 := run(42)
	s2, a2 := run(42)
	if s1 != s2 || !reflect.DeepEqual(a1, a2) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", s1, s2)
	}
	s3, _ := run(43)
	if s1 == s3 {
		t.Error("different stream seeds produced identical histories (suspicious)")
	}
}

// TestActuationPendingKey: idempotency keys are unique per operation and
// visible while the operation is in flight.
func TestActuationPendingKey(t *testing.T) {
	a := New(Config{LatencyIntervals: 3}, 1, "small")
	if a.op != nil {
		t.Error("no op must be pending before any submit")
	}
	a.Submit("large")
	if err := a.Step(0, func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if a.op == nil || a.op.target != "large" || a.op.key == "" {
		t.Fatalf("pending op = %+v", a.op)
	}
	k1 := a.op.key
	a.Submit("medium")
	if err := a.Step(1, func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if a.op == nil || a.op.key == k1 {
		t.Fatalf("superseding op must get a fresh idempotency key: %q vs %+v", k1, a.op)
	}
}

// TestActuationStatsString smoke-checks the one-line rendering.
func TestActuationStatsString(t *testing.T) {
	s := Stats{Ops: 3, Applied: 2, Attempts: 7, Retries: 4, Throttled: 2,
		TransientFailures: 2, Superseded: 1, SumEffectIntervals: 6, MaxEffectIntervals: 4}
	out := s.String()
	for _, want := range []string{"2/3 ops", "7 attempts", "retries×4", "throttled×2", "effect mean 3.0 / max 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("%q missing %q", out, want)
		}
	}
}
