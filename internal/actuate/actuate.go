// Package actuate turns scaling decisions into failable, asynchronous
// resize operations. The paper's architecture (Figure 3, §2.2) has the
// auto-scaling logic *issue* a container resize command to the DaaS
// management fabric, which "then executes the resize operation" — in
// production that execution takes time, can be throttled by the fabric,
// and can fail outright. The auto-scaling survey literature (Qu et al.)
// and URSA-style capacity studies both treat actuation lag and failed
// scaling actions as first-order effects an autoscaler must tolerate.
//
// The model is Kubernetes-style desired-state reconciliation. A consumer
// writes the latest desired target with Submit (idempotent: re-issuing
// the current desired target is a no-op) and drives the actuator once per
// billing interval with Step. The actuator reconciles desired vs actual:
// whenever they differ and no operation is in flight it opens a new
// operation (with a fresh idempotency key), waits out the configured
// actuation latency, then attempts to apply the target through the
// caller's executor. Attempts can be throttled or fail transiently;
// failed attempts retry with capped exponential backoff plus
// deterministic jitter until the operation exhausts its attempt budget or
// its deadline — at which point the operation expires and, because
// reconciliation is level-triggered, a fresh operation for the
// still-desired target is opened on the next Step. A Submit that changes
// the desired target supersedes the in-flight operation immediately: the
// stale resize is abandoned, never applied.
//
// Every random choice (latency jitter, throttle/failure rolls, backoff
// jitter) is drawn from a per-operation stream derived with
// exec.SplitSeed from (stream seed, config seed, operation sequence
// number). An actuator is driven serially within one simulated tenant, so
// the same config and seed reproduce the same operations bit-for-bit at
// any worker count — the property the actuation determinism tests in
// package sim assert.
package actuate

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"math/rand"

	"daasscale/internal/exec"
)

// ErrRefused is the sentinel an executor returns (wrapped) when the
// management fabric refuses to execute the resize — e.g. no server in the
// cluster can host the requested container. A refusal is not a transient
// fault of the actuation channel, but the actuator treats it like one:
// cluster state changes as other tenants resize, so the operation retries
// with backoff until it expires or is superseded.
var ErrRefused = errors.New("actuate: resize refused")

// Config parameterizes the actuation channel. The zero value disables
// actuation entirely: decisions apply synchronously and infallibly, the
// historical behavior. Enable with any non-zero knob, or with Enable for
// an actuated channel that is perfect (zero latency, no faults) — useful
// to assert the actuated path reproduces the synchronous one.
type Config struct {
	// Enable forces the asynchronous path even when every other knob is
	// zero. A zero-latency, zero-fault actuated channel is bit-identical
	// to the synchronous path.
	Enable bool
	// Seed salts the per-operation random streams, so two configs sharing
	// a stream seed draw independent faults.
	Seed int64
	// LatencyIntervals is the number of billing intervals between opening
	// an operation and its first apply attempt — the time the fabric
	// takes to execute a resize. 0 = the attempt lands in the interval
	// the operation opened.
	LatencyIntervals int
	// JitterIntervals adds a deterministic per-operation draw of
	// [0, JitterIntervals] extra latency intervals.
	JitterIntervals int
	// FailRate is the per-attempt probability of a transient failure.
	FailRate float64
	// ThrottleRate is the per-attempt probability that the fabric
	// throttles the attempt (busy, rate-limited).
	ThrottleRate float64
	// BurstStart and BurstLen define a deterministic throttle storm:
	// every attempt in intervals [BurstStart, BurstStart+BurstLen) is
	// throttled, regardless of ThrottleRate. BurstLen 0 = no burst.
	BurstStart int
	BurstLen   int
	// MaxAttempts caps apply attempts per operation (0 → 6). An
	// operation that exhausts its attempts expires; reconciliation then
	// re-issues the still-desired target as a fresh operation.
	MaxAttempts int
	// BackoffIntervals is the backoff after the first failed attempt
	// (0 → 1); it doubles per failure up to BackoffCap (0 → 8), plus a
	// deterministic jitter draw of 0 or 1 intervals.
	BackoffIntervals int
	BackoffCap       int
	// DeadlineIntervals is the per-operation deadline measured from the
	// interval the operation opened (0 → none): a retry scheduled past
	// the deadline expires the operation instead.
	DeadlineIntervals int
}

// Enabled reports whether the config selects the asynchronous path.
func (c Config) Enabled() bool {
	return c.Enable || c.LatencyIntervals > 0 || c.JitterIntervals > 0 ||
		c.FailRate > 0 || c.ThrottleRate > 0 || c.BurstLen > 0
}

// Validate rejects non-finite or out-of-range knobs.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"FailRate", c.FailRate}, {"ThrottleRate", c.ThrottleRate}} {
		if math.IsNaN(r.v) || r.v < 0 || r.v > 1 {
			return fmt.Errorf("actuate: %s must be in [0,1], got %v", r.name, r.v)
		}
	}
	for _, n := range []struct {
		name string
		v    int
	}{
		{"LatencyIntervals", c.LatencyIntervals},
		{"JitterIntervals", c.JitterIntervals},
		{"BurstStart", c.BurstStart},
		{"BurstLen", c.BurstLen},
		{"MaxAttempts", c.MaxAttempts},
		{"BackoffIntervals", c.BackoffIntervals},
		{"BackoffCap", c.BackoffCap},
		{"DeadlineIntervals", c.DeadlineIntervals},
	} {
		if n.v < 0 {
			return fmt.Errorf("actuate: %s must be ≥ 0, got %d", n.name, n.v)
		}
	}
	return nil
}

// maxAttempts, backoffBase and backoffCap resolve the config defaults.
func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 6
	}
	return c.MaxAttempts
}

func (c Config) backoffBase() int {
	if c.BackoffIntervals <= 0 {
		return 1
	}
	return c.BackoffIntervals
}

func (c Config) backoffCap() int {
	if c.BackoffCap <= 0 {
		return 8
	}
	return c.BackoffCap
}

// inBurst reports whether the interval falls inside the throttle storm.
func (c Config) inBurst(interval int) bool {
	return c.BurstLen > 0 && interval >= c.BurstStart && interval < c.BurstStart+c.BurstLen
}

// Stats counts what an actuator did over a run.
type Stats struct {
	// Submitted counts desired-state writes that changed the desired
	// target (idempotent re-issues of the current desire are free).
	Submitted int
	// Ops counts operations opened, including re-issues after expiry.
	Ops int
	// Attempts counts apply attempts; Retries the re-scheduled ones.
	Attempts int
	Retries  int
	// Applied counts operations that reached the actual state.
	Applied int
	// Throttled, TransientFailures and Refused classify failed attempts.
	Throttled         int
	TransientFailures int
	Refused           int
	// Superseded counts in-flight operations abandoned because the
	// desired target moved; Expired the ones that ran out of attempts or
	// deadline.
	Superseded int
	Expired    int
	// SumEffectIntervals and MaxEffectIntervals aggregate, over applied
	// operations, the intervals from opening the operation to the apply.
	SumEffectIntervals int
	MaxEffectIntervals int
}

// MeanEffectIntervals is the mean intervals-to-effect over applied
// operations (0 when none applied).
func (s Stats) MeanEffectIntervals() float64 {
	if s.Applied == 0 {
		return 0
	}
	return float64(s.SumEffectIntervals) / float64(s.Applied)
}

// String summarizes the counters in one line.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d ops applied in %d attempts", s.Applied, s.Ops, s.Attempts)
	for _, c := range []struct {
		name string
		n    int
	}{
		{"retries", s.Retries}, {"throttled", s.Throttled},
		{"failed", s.TransientFailures}, {"refused", s.Refused},
		{"superseded", s.Superseded}, {"expired", s.Expired},
	} {
		if c.n > 0 {
			fmt.Fprintf(&b, ", %s×%d", c.name, c.n)
		}
	}
	if s.Applied > 0 {
		fmt.Fprintf(&b, ", effect mean %.1f / max %d intervals",
			s.MeanEffectIntervals(), s.MaxEffectIntervals)
	}
	return b.String()
}

// op is one in-flight resize operation.
type op[T comparable] struct {
	// key is the idempotency key the operation would carry on the wire; a
	// fabric that already executed it would treat a re-send as a no-op.
	key      string
	target   T
	opened   int // interval the operation was opened
	deadline int // interval past which retries expire the op (-1 = none)
	attempts int
	next     int // interval of the next apply attempt
	rng      *rand.Rand
}

// Actuator reconciles a desired target of type T (a container, a memory
// target) against the actual state behind an asynchronous, failable
// channel. It is driven serially — Submit then Step once per billing
// interval — and is not safe for concurrent use; create one actuator per
// tenant.
type Actuator[T comparable] struct {
	cfg     Config
	base    int64
	desired T
	actual  T
	op      *op[T]
	seq     int64
	stats   Stats
}

// New creates an actuator whose desired and actual state start at
// current. streamSeed identifies the stream (a run or tenant seed); it is
// mixed with the config's Seed so distinct configs fault independently.
func New[T comparable](cfg Config, streamSeed int64, current T) *Actuator[T] {
	return &Actuator[T]{
		cfg:     cfg,
		base:    exec.SplitSeed(streamSeed, cfg.Seed),
		desired: current,
		actual:  current,
	}
}

// Stats returns the actuation counters so far.
func (a *Actuator[T]) Stats() Stats { return a.stats }

// Settled reports whether the actuator has nothing left to do: the actual
// state matches the desired one and no operation is in flight.
func (a *Actuator[T]) Settled() bool { return a.op == nil && a.desired == a.actual }

// Submit records the latest desired target — a desired-state write, not a
// command. Re-submitting the current desired target is an idempotent
// no-op (the level-triggered controller re-issues its desire every
// interval). A changed target takes effect at the next Step, where it
// supersedes any in-flight operation for a stale target.
func (a *Actuator[T]) Submit(target T) {
	if target == a.desired {
		return
	}
	a.desired = target
	a.stats.Submitted++
}

// Step advances the actuator by one billing interval: supersede stale
// work, open an operation when desired ≠ actual, and run the due apply
// attempt through the executor. The executor applies the target to the
// real substrate (engine, fabric); it returns nil on success, an
// ErrRefused-wrapping error when the fabric refuses the resize (the
// operation retries), or any other error to abort the run. Step makes at
// most one apply attempt per interval.
func (a *Actuator[T]) Step(interval int, apply func(T) error) error {
	if a.op != nil && a.op.target != a.desired {
		// The desired target moved while the operation was in flight: the
		// stale resize is superseded, never applied.
		a.stats.Superseded++
		a.op = nil
	}
	if a.op == nil {
		if a.desired == a.actual {
			return nil
		}
		a.open(interval)
	}
	if interval < a.op.next {
		return nil
	}
	o := a.op
	o.attempts++
	a.stats.Attempts++
	switch {
	case a.cfg.inBurst(interval) || (a.cfg.ThrottleRate > 0 && o.rng.Float64() < a.cfg.ThrottleRate):
		a.stats.Throttled++
		a.reschedule(o, interval)
	case a.cfg.FailRate > 0 && o.rng.Float64() < a.cfg.FailRate:
		a.stats.TransientFailures++
		a.reschedule(o, interval)
	default:
		if err := apply(o.target); err != nil {
			if errors.Is(err, ErrRefused) {
				a.stats.Refused++
				a.reschedule(o, interval)
				return nil
			}
			return err
		}
		a.stats.Applied++
		took := interval - o.opened
		a.stats.SumEffectIntervals += took
		if took > a.stats.MaxEffectIntervals {
			a.stats.MaxEffectIntervals = took
		}
		a.actual = o.target
		a.op = nil
	}
	return nil
}

// open starts a fresh operation for the current desired target, with its
// own idempotency key, private random stream, latency draw and deadline.
func (a *Actuator[T]) open(interval int) {
	a.seq++
	rng := rand.New(rand.NewSource(exec.SplitSeed(a.base, a.seq)))
	lat := a.cfg.LatencyIntervals
	if a.cfg.JitterIntervals > 0 {
		lat += rng.Intn(a.cfg.JitterIntervals + 1)
	}
	deadline := -1
	if a.cfg.DeadlineIntervals > 0 {
		deadline = interval + a.cfg.DeadlineIntervals
	}
	a.op = &op[T]{
		key:      fmt.Sprintf("resize-%d", a.seq),
		target:   a.desired,
		opened:   interval,
		deadline: deadline,
		next:     interval + lat,
		rng:      rng,
	}
	a.stats.Ops++
}

// reschedule plans the operation's next attempt with capped exponential
// backoff plus a deterministic 0-or-1-interval jitter, or expires the
// operation when it ran out of attempts or deadline. Expiry does not
// clear the desired target: reconciliation opens a fresh operation on the
// next Step, so the channel converges once the faults clear.
func (a *Actuator[T]) reschedule(o *op[T], interval int) {
	backoff := a.cfg.backoffCap()
	if shift := o.attempts - 1; shift < 31 && a.cfg.backoffBase()<<shift < backoff {
		backoff = a.cfg.backoffBase() << shift
	}
	backoff += o.rng.Intn(2)
	if backoff < 1 {
		backoff = 1
	}
	next := interval + backoff
	if o.attempts >= a.cfg.maxAttempts() || (o.deadline >= 0 && next > o.deadline) {
		a.stats.Expired++
		a.op = nil
		return
	}
	o.next = next
	a.stats.Retries++
}
