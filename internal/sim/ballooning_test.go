package sim

import (
	"context"
	"testing"
)

// TestBallooningFigure14Shape asserts the Figure 14 claims: without
// ballooning, the incorrect low-memory estimate evicts the working set and
// latency rises by orders of magnitude with a long recovery; with
// ballooning, the probe aborts near the working set and latency barely
// moves.
func TestBallooningFigure14Shape(t *testing.T) {
	res, err := NewRunner().RunBallooning(context.Background(), BallooningSpec{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	naive := res.Without
	if naive.ShrunkAt < 0 {
		t.Fatal("naive arm never shrank memory")
	}
	if !naive.Aborted || naive.RevertedAt < 0 {
		t.Fatal("naive arm never reverted")
	}
	// Figure 14(a): sharp memory drop to (at least near) the smaller
	// container.
	if naive.MinMemoryMB() > 2100 {
		t.Errorf("naive arm memory only dropped to %v MB", naive.MinMemoryMB())
	}
	// Figure 14(b): latency rises by ≈2 orders of magnitude.
	base := naive.BaselineAvgMs()
	if base <= 0 {
		t.Fatal("no baseline latency")
	}
	if naive.PeakAvgMs() < 20*base {
		t.Errorf("naive arm peak latency %v should dwarf baseline %v", naive.PeakAvgMs(), base)
	}
	// Recovery is slow: latency is still elevated well after the revert
	// (the cache must re-warm through physical reads).
	post := naive.Series[naive.RevertedAt+5]
	if post.AvgMs < 2*base {
		t.Errorf("naive arm recovered too fast: %v vs baseline %v", post.AvgMs, base)
	}

	probe := res.With
	if probe.ShrunkAt < 0 {
		t.Fatal("probe arm never started ballooning")
	}
	if !probe.Aborted {
		t.Fatal("probe should abort before reaching the smaller container")
	}
	// The probe aborts near the working set — memory never collapses to
	// the smaller container.
	if probe.MinMemoryMB() < res.WorkingSetMB*0.80 {
		t.Errorf("probe arm went too deep: %v MB vs working set %v", probe.MinMemoryMB(), res.WorkingSetMB)
	}
	// Minimal latency impact: peak stays within a small multiple of the
	// baseline, and far below the naive arm's peak.
	pbase := probe.BaselineAvgMs()
	if probe.PeakAvgMs() > 5*pbase {
		t.Errorf("probe arm latency impact too large: peak %v vs baseline %v", probe.PeakAvgMs(), pbase)
	}
	if probe.PeakAvgMs() > naive.PeakAvgMs()/4 {
		t.Errorf("probe arm peak %v should be far below naive peak %v", probe.PeakAvgMs(), naive.PeakAvgMs())
	}
}

func TestBallooningDeterminism(t *testing.T) {
	a, err := NewRunner().RunBallooning(context.Background(), BallooningSpec{Seed: 4, Intervals: 60})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().RunBallooning(context.Background(), BallooningSpec{Seed: 4, Intervals: 60})
	if err != nil {
		t.Fatal(err)
	}
	if a.Without.PeakAvgMs() != b.Without.PeakAvgMs() || a.With.MinMemoryMB() != b.With.MinMemoryMB() {
		t.Error("ballooning experiment not deterministic")
	}
	if len(a.With.Series) != 60 || len(a.Without.Series) != 60 {
		t.Errorf("series lengths: %d / %d", len(a.With.Series), len(a.Without.Series))
	}
}
