package estimator

import (
	"testing"

	"daasscale/internal/telemetry"
)

// balloonSig builds signals with the fields the balloon controller reads.
func balloonSig(usedMB, readsMedian, readsCurrent, p95 float64) telemetry.Signals {
	var s telemetry.Signals
	s.MemoryUsedMB = usedMB
	s.PhysicalReadsMedian = readsMedian
	s.Current.PhysicalReads = readsCurrent
	s.Current.P95LatencyMs = p95
	s.Latency.P95Ms = p95
	return s
}

func TestBalloonStateString(t *testing.T) {
	if BalloonIdle.String() != "idle" || BalloonActive.String() != "active" || BalloonCooldown.String() != "cooldown" {
		t.Error("state names wrong")
	}
	if BalloonState(9).String() != "balloonstate(9)" {
		t.Error("unknown state name wrong")
	}
}

func TestBalloonStartsOnlyWhenSafe(t *testing.T) {
	b := NewBalloon(DefaultBalloonConfig())
	// Not safe: other resources busy.
	if d := b.Step(balloonSig(4000, 100, 100, 50), false, 2048, 0); d.TargetMB != 0 {
		t.Errorf("probe started while unsafe: %+v", d)
	}
	// Already below the next smaller container: nothing to probe.
	if d := b.Step(balloonSig(1500, 100, 100, 50), true, 2048, 0); d.TargetMB != 0 {
		t.Errorf("probe started below goal line: %+v", d)
	}
	// Disabled when no smaller container exists.
	if d := b.Step(balloonSig(4000, 100, 100, 50), true, 0, 0); d.TargetMB != 0 {
		t.Errorf("probe started with no smaller container: %+v", d)
	}
	// Safe: probe starts, first target below current use.
	d := b.Step(balloonSig(4000, 100, 100, 50), true, 2048, 0)
	if d.TargetMB <= 0 || d.TargetMB >= 4000 {
		t.Fatalf("probe target = %v", d.TargetMB)
	}
	if b.state != BalloonActive {
		t.Errorf("state = %v", b.state)
	}
}

func TestBalloonSucceedsWithoutIOIncrease(t *testing.T) {
	b := NewBalloon(DefaultBalloonConfig())
	used := 4000.0
	sig := balloonSig(used, 100, 100, 50)
	d := b.Step(sig, true, 2048, 0)
	steps := 0
	for !d.MemoryDemandLow {
		if d.Aborted {
			t.Fatalf("probe aborted unexpectedly: %s", d.Note)
		}
		if d.TargetMB > 0 {
			used = d.TargetMB // engine follows the target; I/O stays flat
		}
		d = b.Step(balloonSig(used, 100, 100, 50), true, 2048, 0)
		steps++
		if steps > 100 {
			t.Fatal("probe never concluded")
		}
	}
	if b.state != BalloonCooldown {
		t.Errorf("state after success = %v", b.state)
	}
	if b.TargetMB() != 0 {
		t.Errorf("target not cleared: %v", b.TargetMB())
	}
}

func TestBalloonAbortsOnIOIncrease(t *testing.T) {
	b := NewBalloon(DefaultBalloonConfig())
	d := b.Step(balloonSig(4000, 100, 100, 50), true, 2048, 0)
	if d.TargetMB == 0 {
		t.Fatal("probe did not start")
	}
	// Next interval: reads spike (working set no longer fits).
	d = b.Step(balloonSig(d.TargetMB, 100, 5000, 50), true, 2048, 0)
	if !d.Aborted {
		t.Fatalf("probe should abort on I/O spike: %+v", d)
	}
	if d.TargetMB != 0 {
		t.Errorf("abort must clear the target: %v", d.TargetMB)
	}
	if b.state != BalloonCooldown {
		t.Errorf("state after abort = %v", b.state)
	}
}

func TestBalloonAbortsOnLatencyDamage(t *testing.T) {
	b := NewBalloon(DefaultBalloonConfig())
	sig := balloonSig(4000, 100, 100, 50)
	d := b.Step(sig, true, 2048, 0)
	// Latency doubles while reads stay flat (e.g. memory-stall pathway).
	spiked := balloonSig(d.TargetMB, 100, 100, 120)
	spiked.Latency.P95Ms = 50 // windowed median still the baseline
	d = b.Step(spiked, true, 2048, 0)
	if !d.Aborted {
		t.Fatalf("probe should abort on latency damage: %+v", d)
	}
}

func TestBalloonAbortsWhenNoLongerSafe(t *testing.T) {
	b := NewBalloon(DefaultBalloonConfig())
	b.Step(balloonSig(4000, 100, 100, 50), true, 2048, 0)
	d := b.Step(balloonSig(3600, 100, 100, 50), false, 2048, 0)
	if !d.Aborted {
		t.Fatalf("probe should abort when workload picks up: %+v", d)
	}
}

func TestBalloonCooldownBlocksRestart(t *testing.T) {
	cfg := DefaultBalloonConfig()
	cfg.CooldownIntervals = 3
	b := NewBalloon(cfg)
	b.Step(balloonSig(4000, 100, 100, 50), true, 2048, 0)
	b.Step(balloonSig(3600, 100, 9000, 50), true, 2048, 0) // abort
	for i := 0; i < 3; i++ {
		if d := b.Step(balloonSig(4000, 100, 100, 50), true, 2048, 0); d.TargetMB != 0 {
			t.Fatalf("probe restarted during cooldown (i=%d): %+v", i, d)
		}
	}
	// Cooldown over: probe may start again.
	if d := b.Step(balloonSig(4000, 100, 100, 50), true, 2048, 0); d.TargetMB == 0 {
		t.Error("probe should restart after cooldown")
	}
}

func TestBalloonZeroBaselineUsesSlack(t *testing.T) {
	// An all-cached workload has ≈0 physical reads; the absolute slack must
	// keep the probe from aborting on trivial read counts.
	b := NewBalloon(DefaultBalloonConfig())
	d := b.Step(balloonSig(4000, 0, 0, 50), true, 2048, 0)
	if d.TargetMB == 0 {
		t.Fatal("probe did not start")
	}
	// With the default config, the slack is 500 absolute reads plus 8% of
	// the next container's per-interval I/O capacity.
	d = b.Step(balloonSig(d.TargetMB, 0, 400, 50), true, 2048, 200)
	if d.Aborted {
		t.Errorf("400 reads within slack should not abort: %+v", d)
	}
	d = b.Step(balloonSig(b.TargetMB(), 0, 5000, 50), true, 2048, 200)
	if !d.Aborted {
		t.Errorf("5000 reads beyond slack should abort: %+v", d)
	}
}

func TestNewBalloonFixesBadStepFraction(t *testing.T) {
	b := NewBalloon(BalloonConfig{StepFraction: -1})
	if b.cfg.StepFraction <= 0 || b.cfg.StepFraction >= 1 {
		t.Errorf("step fraction not defaulted: %v", b.cfg.StepFraction)
	}
}
