package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestSanitizeValue(t *testing.T) {
	cases := []struct {
		v, fallback, want float64
		repaired          bool
	}{
		{5, 1, 5, false},
		{0, 1, 0, false},
		{-3, 1, 0, true},
		{math.NaN(), 7, 7, true},
		{math.Inf(1), 7, 7, true},
		{math.Inf(-1), 7, 7, true},
		{math.NaN(), math.NaN(), 0, true},  // non-finite fallback forced to 0
		{math.Inf(1), -4, 0, true},         // negative fallback forced to 0
		{math.NaN(), math.Inf(1), 0, true}, // infinite fallback forced to 0
	}
	for _, c := range cases {
		got, repaired := sanitizeValue(c.v, c.fallback)
		if got != c.want || repaired != c.repaired {
			t.Errorf("sanitizeValue(%v, %v) = (%v, %v), want (%v, %v)",
				c.v, c.fallback, got, repaired, c.want, c.repaired)
		}
	}
}

func TestSanitizeSnapshotRepairsAllFields(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prev := randomSnapshot(rng, 4)
	s := randomSnapshot(rng, 5)
	s.AvgLatencyMs = math.NaN()
	s.P95LatencyMs = math.Inf(1)
	s.OfferedRPS = -10
	s.WaitMs[WaitCPU] = math.NaN()
	s.Utilization[0] = math.Inf(-1)
	s.PhysicalReads = -1

	fixed := SanitizeSnapshot(&s, &prev)
	if fixed != 6 {
		t.Fatalf("fixed = %d, want 6", fixed)
	}
	if s.AvgLatencyMs != prev.AvgLatencyMs {
		t.Errorf("NaN AvgLatencyMs → %v, want previous %v", s.AvgLatencyMs, prev.AvgLatencyMs)
	}
	if s.P95LatencyMs != prev.P95LatencyMs {
		t.Errorf("Inf P95LatencyMs → %v, want previous %v", s.P95LatencyMs, prev.P95LatencyMs)
	}
	if s.OfferedRPS != 0 {
		t.Errorf("negative OfferedRPS → %v, want 0", s.OfferedRPS)
	}
	if s.WaitMs[WaitCPU] != prev.WaitMs[WaitCPU] {
		t.Errorf("NaN WaitMs → %v, want previous %v", s.WaitMs[WaitCPU], prev.WaitMs[WaitCPU])
	}
	if s.Utilization[0] != prev.Utilization[0] {
		t.Errorf("-Inf Utilization → %v, want previous %v", s.Utilization[0], prev.Utilization[0])
	}
	if s.PhysicalReads != 0 {
		t.Errorf("negative PhysicalReads → %v, want 0", s.PhysicalReads)
	}
}

func TestSanitizeSnapshotCleanIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prev := randomSnapshot(rng, 1)
	s := randomSnapshot(rng, 2)
	orig := s
	if fixed := SanitizeSnapshot(&s, &prev); fixed != 0 {
		t.Fatalf("clean snapshot reported %d repairs", fixed)
	}
	if !reflect.DeepEqual(s, orig) {
		t.Fatal("clean snapshot was modified")
	}
}

func TestSanitizeSnapshotNilPrev(t *testing.T) {
	var s Snapshot
	s.Interval = 3
	s.AvgLatencyMs = math.NaN()
	if fixed := SanitizeSnapshot(&s, nil); fixed != 1 {
		t.Fatalf("fixed = %d, want 1", fixed)
	}
	if s.AvgLatencyMs != 0 {
		t.Fatalf("NaN with nil prev → %v, want 0", s.AvgLatencyMs)
	}
	if s.Interval != 3 {
		t.Fatal("Interval index must never be touched")
	}
}

func TestQualityScore(t *testing.T) {
	var pristine Quality
	if pristine.Score() != 1 || pristine.Degraded() || pristine.Severe() {
		t.Fatalf("zero-value quality must be pristine, got %v", pristine)
	}
	clean := Quality{IntervalsSeen: 10}
	if clean.Score() != 1 {
		t.Fatalf("clean window score = %v", clean.Score())
	}
	if q := (Quality{IntervalsSeen: 10, Gaps: 10}); q.Score() != 0.5 || !q.Degraded() {
		t.Fatalf("half-missing window score = %v", q.Score())
	}
	if q := (Quality{IntervalsSeen: 10, Sanitized: 10}); q.Score() != 0 || !q.Severe() {
		t.Fatalf("fully-sanitized window score = %v", q.Score())
	}
	if q := (Quality{IntervalsSeen: 10, Duplicates: 1}); !(q.Score() < 1) || q.Severe() {
		t.Fatalf("one duplicate score = %v", q.Score())
	}
	q := Quality{IntervalsSeen: 8, Gaps: 2}
	if q.IntervalsExpected() != 10 {
		t.Fatalf("IntervalsExpected = %d", q.IntervalsExpected())
	}
	if s := q.String(); s == "" {
		t.Fatal("empty String()")
	}
	// Sanitized counts beyond the window length must not push the score
	// negative.
	if q := (Quality{IntervalsSeen: 2, Sanitized: 50}); q.Score() < 0 {
		t.Fatalf("score went negative: %v", q.Score())
	}
}

// TestManagerQualityAccounting walks the delivery-order classifier through
// gaps, duplicates and out-of-order arrivals and checks the window-scoped
// counters, including ageing out after eviction.
func TestManagerQualityAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewManager(4)

	m.Observe(randomSnapshot(rng, 0))
	m.Observe(randomSnapshot(rng, 1))
	if q := m.quality(len(m.ring)); q != (Quality{IntervalsSeen: 2}) {
		t.Fatalf("clean deliveries: %+v", q)
	}

	m.Observe(randomSnapshot(rng, 1)) // duplicate
	if q := m.quality(len(m.ring)); q.Duplicates != 1 {
		t.Fatalf("duplicate not counted: %+v", q)
	}
	m.Observe(randomSnapshot(rng, 0)) // out of order
	if q := m.quality(len(m.ring)); q.OutOfOrder != 1 {
		t.Fatalf("out-of-order not counted: %+v", q)
	}
	m.Observe(randomSnapshot(rng, 5)) // gap of 3 (intervals 2..4 missing)
	q := m.quality(len(m.ring))
	if q.Gaps != 3 {
		t.Fatalf("gap = %d, want 3: %+v", q.Gaps, q)
	}
	// Window is 4: the two clean deliveries have been evicted by now.
	if q.IntervalsSeen != 4 {
		t.Fatalf("IntervalsSeen = %d, want 4", q.IntervalsSeen)
	}

	// Clean deliveries push the anomalies out of the window.
	for i := 6; i < 10; i++ {
		m.Observe(randomSnapshot(rng, i))
	}
	if q := m.quality(len(m.ring)); q != (Quality{IntervalsSeen: 4}) {
		t.Fatalf("quality did not recover after the channel healed: %+v", q)
	}
}

// TestManagerGapCappedAtWindow: a clock-skewed interval index jumping far
// ahead must not report an absurd gap.
func TestManagerGapCappedAtWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewManager(5)
	m.Observe(randomSnapshot(rng, 0))
	m.Observe(randomSnapshot(rng, 1_000_000))
	if q := m.quality(len(m.ring)); q.Gaps != 5 {
		t.Fatalf("gap = %d, want capped at window 5", q.Gaps)
	}
}

// TestManagerSanitizesCorruptStream feeds hand-corrupted snapshots (NaN,
// Inf, negative counters) and asserts the signals stay finite and match the
// reference implementation's recorded output, with the quality counters
// reflecting the repairs.
func TestManagerSanitizesCorruptStream(t *testing.T) {
	d := newSignalsDigest()
	rng := rand.New(rand.NewSource(5))
	m := NewManager(10)
	sanitized := 0
	for i := 0; i < 10*3; i++ {
		s := randomSnapshot(rng, i)
		switch i % 4 {
		case 1:
			s.AvgLatencyMs = math.NaN()
			s.WaitMs[WaitDiskIO] = math.Inf(1)
			sanitized += 2
		case 3:
			s.OfferedRPS = -5
			sanitized++
		}
		m.Observe(s)

		got, ok := m.Signals()
		d.add(got, ok)
		if !ok {
			continue
		}
		if math.IsNaN(got.Latency.AvgMs) || math.IsInf(got.Latency.AvgMs, 0) {
			t.Fatalf("interval %d: AvgMs not finite: %v", i, got.Latency.AvgMs)
		}
		for _, rs := range got.Resources {
			if math.IsNaN(rs.WaitMs) || math.IsInf(rs.WaitMs, 0) {
				t.Fatalf("interval %d: resource WaitMs not finite", i)
			}
		}
	}
	if h := d.sum(); h != goldenSignalsCorrupt {
		t.Errorf("Signals over the corrupt stream hash to %s, want %s", h, goldenSignalsCorrupt)
	}
	// Window 10 with corruption every 4th interval (pattern 2+0+1+0 per 4):
	// quality must be dirty but not pristine.
	q := m.quality(len(m.ring))
	if q.Sanitized == 0 {
		t.Fatal("no sanitization recorded")
	}
	if q.Sanitized > sanitized {
		t.Fatalf("window-scoped Sanitized %d exceeds total repairs %d", q.Sanitized, sanitized)
	}
}

// TestSteadySignalsPristineQuality: hand-built signals must never read as
// degraded (backward compatibility for estimator unit tests and labeled
// observations).
func TestSteadySignalsPristineQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sig := SteadySignals(randomSnapshot(rng, 0))
	if sig.Quality.Degraded() {
		t.Fatalf("SteadySignals degraded: %v", sig.Quality)
	}
}
