package estimator

import (
	"fmt"

	"daasscale/internal/telemetry"
)

// BalloonState is the phase of the ballooning protocol.
type BalloonState int

// Ballooning phases.
const (
	// BalloonIdle means no probe is running.
	BalloonIdle BalloonState = iota
	// BalloonActive means memory is being reduced gradually.
	BalloonActive
	// BalloonCooldown means a probe recently aborted (or succeeded) and a
	// new probe must wait.
	BalloonCooldown
)

// String names the state.
func (s BalloonState) String() string {
	switch s {
	case BalloonIdle:
		return "idle"
	case BalloonActive:
		return "active"
	case BalloonCooldown:
		return "cooldown"
	default:
		return fmt.Sprintf("balloonstate(%d)", int(s))
	}
}

// BalloonConfig tunes the ballooning protocol.
type BalloonConfig struct {
	// StepFraction is the fraction of current memory removed per interval
	// ("slowly reduce the memory allocated to a tenant").
	StepFraction float64
	// AbortReadsFactor aborts the probe when per-interval physical reads
	// exceed baseline·factor plus a slack. The slack has an absolute part
	// (AbortReadsSlack, so an all-cached baseline of ≈0 does not make the
	// probe hair-triggered) and a capacity-relative part
	// (AbortReadsIOPSFrac of the next smaller container's per-interval I/O
	// capacity — an increase is only "significant" relative to what the
	// smaller container could absorb).
	AbortReadsFactor   float64
	AbortReadsSlack    float64
	AbortReadsIOPSFrac float64
	// AbortLatencyFactor aborts when p95 latency exceeds baseline·factor.
	AbortLatencyFactor float64
	// CooldownIntervals is the pause after an abort or success before the
	// next probe may start.
	CooldownIntervals int
}

// DefaultBalloonConfig returns the configuration used by the experiments.
func DefaultBalloonConfig() BalloonConfig {
	return BalloonConfig{
		StepFraction:       0.08,
		AbortReadsFactor:   1.25,
		AbortReadsSlack:    500,
		AbortReadsIOPSFrac: 0.08,
		AbortLatencyFactor: 1.4,
		CooldownIntervals:  20,
	}
}

// BalloonDecision is the controller's per-interval output.
type BalloonDecision struct {
	// TargetMB is the memory target to install in the engine; 0 means no
	// ballooning (release any target).
	TargetMB float64
	// MemoryDemandLow is true when the probe reached the next smaller
	// container's memory without a significant disk-I/O or latency
	// increase: memory demand is established as low.
	MemoryDemandLow bool
	// Aborted is true when the probe reverted because I/O or latency rose.
	Aborted bool
	// Note explains the action taken, if any.
	Note string
}

// Balloon is the low-memory-demand prober (Section 4.3): it gradually
// shrinks the tenant's memory, watching disk I/O. If memory can reach the
// next smaller container without a significant increase in disk I/O, memory
// demand is low; if I/O rises, the probe reverts. A probe is only started
// when the demand for every other resource is LOW, minimizing the risk to
// query latencies.
type Balloon struct {
	cfg   BalloonConfig
	state BalloonState

	targetMB      float64
	baselineReads float64
	baselineP95   float64
	cooldown      int
}

// NewBalloon creates a ballooning controller.
func NewBalloon(cfg BalloonConfig) *Balloon {
	if cfg.StepFraction <= 0 || cfg.StepFraction >= 1 {
		cfg.StepFraction = DefaultBalloonConfig().StepFraction
	}
	return &Balloon{cfg: cfg}
}

// TargetMB returns the active memory target (0 when idle).
func (b *Balloon) TargetMB() float64 { return b.targetMB }

// Step advances the protocol by one billing interval.
//
//	sig             — the telemetry manager's signals,
//	safeToProbe     — true when every other resource's demand is LOW and
//	                  latency goals are being met (the paper's trigger),
//	nextSmallerMB   — the memory allocation of the next smaller container
//	                  (the probe's goal line); ≤ 0 disables probing,
//	nextSmallerIOPS — the next smaller container's disk I/O allocation,
//	                  which sizes the "significant I/O increase" slack.
func (b *Balloon) Step(sig telemetry.Signals, safeToProbe bool, nextSmallerMB, nextSmallerIOPS float64) BalloonDecision {
	switch b.state {
	case BalloonCooldown:
		b.cooldown--
		if b.cooldown <= 0 {
			b.state = BalloonIdle
		}
		return BalloonDecision{}

	case BalloonIdle:
		if !safeToProbe || nextSmallerMB <= 0 || sig.MemoryUsedMB <= nextSmallerMB {
			return BalloonDecision{}
		}
		b.state = BalloonActive
		b.baselineReads = sig.PhysicalReadsMedian
		b.baselineP95 = sig.Latency.P95Ms
		b.targetMB = sig.MemoryUsedMB * (1 - b.cfg.StepFraction)
		return BalloonDecision{
			TargetMB: b.targetMB,
			Note: fmt.Sprintf("balloon: probing low memory demand, target %.0fMB (baseline reads %.0f)",
				b.targetMB, b.baselineReads),
		}

	case BalloonActive:
		// Abort on disk-I/O increase or latency damage.
		slack := b.cfg.AbortReadsSlack + b.cfg.AbortReadsIOPSFrac*nextSmallerIOPS*60
		readLimit := b.baselineReads*b.cfg.AbortReadsFactor + slack
		latLimit := b.baselineP95 * b.cfg.AbortLatencyFactor
		reads := sig.PhysicalReadsMedian
		if sig.Current.PhysicalReads > reads {
			// React to the most recent interval too: the I/O increase shows
			// up there first, before the windowed median catches up.
			reads = sig.Current.PhysicalReads
		}
		if reads > readLimit || (b.baselineP95 > 0 && sig.Current.P95LatencyMs > latLimit) {
			b.reset()
			return BalloonDecision{
				Aborted: true,
				Note: fmt.Sprintf("balloon: aborted at %.0fMB (reads %.0f > limit %.0f or latency degraded); reverting",
					sig.MemoryUsedMB, reads, readLimit),
			}
		}
		// If the workload stops being quiet, abort conservatively too.
		if !safeToProbe {
			b.reset()
			return BalloonDecision{
				Aborted: true,
				Note:    "balloon: aborted, other resources no longer idle",
			}
		}
		// Success: reached the next smaller container's memory.
		if b.targetMB <= nextSmallerMB {
			b.reset()
			return BalloonDecision{
				MemoryDemandLow: true,
				Note:            fmt.Sprintf("balloon: reached %.0fMB without I/O increase — memory demand is low", nextSmallerMB),
			}
		}
		// Keep shrinking.
		b.targetMB *= 1 - b.cfg.StepFraction
		if b.targetMB < nextSmallerMB {
			b.targetMB = nextSmallerMB
		}
		return BalloonDecision{
			TargetMB: b.targetMB,
			Note:     fmt.Sprintf("balloon: shrinking, target %.0fMB", b.targetMB),
		}
	}
	return BalloonDecision{}
}

// reset returns to cooldown and clears the probe.
func (b *Balloon) reset() {
	b.state = BalloonCooldown
	b.cooldown = b.cfg.CooldownIntervals
	b.targetMB = 0
}
