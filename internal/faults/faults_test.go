package faults

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"daasscale/internal/telemetry"
)

// snapsEqual compares snapshot streams by their formatted representation:
// injected NaNs make reflect.DeepEqual useless (NaN ≠ NaN), but they format
// identically.
func snapsEqual(a, b []telemetry.Snapshot) bool {
	return fmt.Sprintf("%v", a) == fmt.Sprintf("%v", b)
}

// testSnapshot builds a clean, fully-populated snapshot.
func testSnapshot(rng *rand.Rand, interval int) telemetry.Snapshot {
	var s telemetry.Snapshot
	s.Interval = interval
	s.Container = "C1"
	s.Step = 1
	s.Cost = 2
	for k := range s.Utilization {
		s.Utilization[k] = rng.Float64()
		s.UtilizationPeak[k] = s.Utilization[k]
	}
	for c := range s.WaitMs {
		s.WaitMs[c] = rng.Float64() * 10_000
	}
	s.AvgLatencyMs = 20 + rng.Float64()*50
	s.P95LatencyMs = s.AvgLatencyMs * 2
	s.Transactions = rng.Float64() * 1e4
	s.OfferedRPS = rng.Float64() * 400
	s.MemoryUsedMB = rng.Float64() * 2048
	s.PhysicalReads = rng.Float64() * 1e5
	s.PhysicalWrites = rng.Float64() * 1e4
	return s
}

func TestUniformPlan(t *testing.T) {
	p := Uniform(0.1)
	if !p.Enabled() {
		t.Fatal("Uniform(0.1) not enabled")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var sum float64
	for k := 0; k < NumKinds; k++ {
		sum += p.Rates[k]
	}
	if math.Abs(sum-0.1) > 1e-12 {
		t.Fatalf("rates sum to %v, want 0.1", sum)
	}
	var zero Plan
	if zero.Enabled() {
		t.Fatal("zero plan reports enabled")
	}
}

func TestPlanValidateRejectsBadRates(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -0.1, 1.5} {
		var p Plan
		p.Rates[KindDrop] = bad
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted rate %v", bad)
		}
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := 0; k < NumKinds; k++ {
		s := Kind(k).String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

// TestInjectorDeterministic: two injectors with the same plan and stream
// seed produce identical delivery sequences; a different plan seed differs.
func TestInjectorDeterministic(t *testing.T) {
	plan := Uniform(0.4) // high rate so every kind fires in 200 intervals
	run := func(p Plan, streamSeed int64) ([]telemetry.Snapshot, Stats) {
		in := NewInjector(p, streamSeed)
		rng := rand.New(rand.NewSource(9))
		var out []telemetry.Snapshot
		for i := 0; i < 200; i++ {
			out = append(out, in.Apply(testSnapshot(rng, i))...)
		}
		return out, in.Stats()
	}
	a, sa := run(plan, 7)
	b, sb := run(plan, 7)
	if !snapsEqual(a, b) || sa != sb {
		t.Fatal("same plan+seed produced different streams")
	}
	other := plan
	other.Seed = 1
	c, _ := run(other, 7)
	if snapsEqual(a, c) {
		t.Fatal("different plan seed produced an identical stream")
	}
	d, _ := run(plan, 8)
	if snapsEqual(a, d) {
		t.Fatal("different stream seed produced an identical stream")
	}
}

// TestInjectorIntervalIndependence: the faults injected into interval i are
// a pure function of (plan, stream seed, i) — skipping earlier intervals
// must not change how interval i is corrupted.
func TestInjectorIntervalIndependence(t *testing.T) {
	plan := Uniform(0.5)
	plan.Rates[KindDrop] = 0 // keep every interval observable
	plan.Rates[KindReorder] = 0
	plan.Rates[KindDuplicate] = 0
	rng := rand.New(rand.NewSource(4))
	snaps := make([]telemetry.Snapshot, 50)
	for i := range snaps {
		snaps[i] = testSnapshot(rng, i)
	}

	full := NewInjector(plan, 3)
	var fromFull []telemetry.Snapshot
	for _, s := range snaps {
		fromFull = append(fromFull, full.Apply(s)...)
	}
	for i, s := range snaps {
		solo := NewInjector(plan, 3)
		got := solo.Apply(s)
		if len(got) != 1 {
			t.Fatalf("interval %d: %d snapshots delivered, want 1", i, len(got))
		}
		if !snapsEqual(got, fromFull[i:i+1]) {
			t.Fatalf("interval %d corrupted differently in isolation", i)
		}
	}
}

func TestInjectorDropEverything(t *testing.T) {
	var plan Plan
	plan.Rates[KindDrop] = 1
	in := NewInjector(plan, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		if out := in.Apply(testSnapshot(rng, i)); len(out) != 0 {
			t.Fatalf("interval %d delivered %d snapshots under drop rate 1", i, len(out))
		}
	}
	st := in.Stats()
	if st.Intervals != 20 || st.Delivered != 0 || st.Injected[KindDrop] != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestInjectorReorder: with only the reorder fault at rate 1, every odd
// Apply releases the held snapshot after the newer one.
func TestInjectorReorder(t *testing.T) {
	var plan Plan
	plan.Rates[KindReorder] = 1
	in := NewInjector(plan, 1)
	rng := rand.New(rand.NewSource(2))

	if out := in.Apply(testSnapshot(rng, 0)); len(out) != 0 {
		t.Fatalf("first interval delivered %d snapshots, want 0 (held)", len(out))
	}
	out := in.Apply(testSnapshot(rng, 1))
	if len(out) != 2 || out[0].Interval != 1 || out[1].Interval != 0 {
		t.Fatalf("release order wrong: %d snapshots, intervals %v", len(out),
			[]int{out[0].Interval, out[1].Interval})
	}
	if out := in.Apply(testSnapshot(rng, 2)); len(out) != 0 {
		t.Fatal("third interval should be held again")
	}
	if st := in.Stats(); st.Delivered != 2 || st.Intervals != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestInjectorCorruptionKinds: each corruption kind at rate 1 leaves its
// fingerprint on the snapshot.
func TestInjectorCorruptionKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	apply := func(k Kind) telemetry.Snapshot {
		var plan Plan
		plan.Rates[k] = 1
		in := NewInjector(plan, 11)
		out := in.Apply(testSnapshot(rand.New(rand.NewSource(6)), 5))
		if len(out) != 1 {
			t.Fatalf("kind %v: delivered %d, want 1", k, len(out))
		}
		if in.Stats().Injected[k] != 1 {
			t.Fatalf("kind %v not counted", k)
		}
		return out[0]
	}
	clean := testSnapshot(rng, 5)

	hasNonFinite := func(s telemetry.Snapshot) bool {
		vals := []float64{s.AvgLatencyMs, s.P95LatencyMs, s.OfferedRPS,
			s.MemoryUsedMB, s.PhysicalReads, s.Transactions}
		for _, u := range s.Utilization {
			vals = append(vals, u)
		}
		for _, w := range s.WaitMs {
			vals = append(vals, w)
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		return false
	}
	hasNegative := func(s telemetry.Snapshot) bool {
		vals := []float64{s.AvgLatencyMs, s.P95LatencyMs, s.OfferedRPS,
			s.MemoryUsedMB, s.PhysicalReads, s.Transactions}
		for _, u := range s.Utilization {
			vals = append(vals, u)
		}
		for _, w := range s.WaitMs {
			vals = append(vals, w)
		}
		for _, v := range vals {
			if v < 0 {
				return true
			}
		}
		return false
	}

	if !hasNonFinite(apply(KindNaN)) {
		t.Error("KindNaN left every field finite")
	}
	if !hasNonFinite(apply(KindInf)) {
		t.Error("KindInf left every field finite")
	}
	if !hasNegative(apply(KindNegative)) {
		t.Error("KindNegative left every field non-negative")
	}
	if s := apply(KindReset); s.TotalWaitMs() != 0 || s.PhysicalReads != 0 || s.Transactions != 0 {
		t.Error("KindReset did not zero the cumulative counters")
	}
	if s := apply(KindEmptyWaitMap); s.TotalWaitMs() != 0 {
		t.Error("KindEmptyWaitMap left waits behind")
	}
	if s := apply(KindPartialWaitMap); !(s.TotalWaitMs() < clean.TotalWaitMs()) {
		t.Error("KindPartialWaitMap cleared nothing")
	}
	if s := apply(KindClockSkew); s.Interval == clean.Interval || s.Interval < 0 {
		t.Errorf("KindClockSkew interval = %d (clean %d)", s.Interval, clean.Interval)
	}
}

func TestStatsString(t *testing.T) {
	var s Stats
	s.Intervals = 10
	s.Delivered = 9
	s.Injected[KindDrop] = 1
	got := s.String()
	if got != "9/10 intervals delivered, drop×1" {
		t.Errorf("String() = %q", got)
	}
	if s.Total() != 1 {
		t.Errorf("Total() = %d", s.Total())
	}
}

// TestManagerSurvivesInjector is the pipeline integration property: a
// telemetry.Manager fed through an aggressive injector always yields finite
// signals and flags the window as degraded when faults actually landed.
// Faults act on snapshots before Observe, so the telemetry package's
// corrupt-stream golden already pins the arithmetic they reach.
func TestManagerSurvivesInjector(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plan := Uniform(0.8)
		plan.Seed = seed
		in := NewInjector(plan, 100+seed)
		m := telemetry.NewManager(10)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 120; i++ {
			for _, fs := range in.Apply(testSnapshot(rng, i)) {
				m.Observe(fs)
			}
			if got, ok := m.Signals(); ok {
				assertFiniteSignals(t, got)
			}
		}
		if sig, _ := m.Signals(); sig.Quality.Score() >= 1 {
			t.Fatalf("seed %d: aggressive plan left quality pristine: %v", seed, sig.Quality)
		}
	}
}

func assertFiniteSignals(t *testing.T, sig telemetry.Signals) {
	t.Helper()
	check := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("signal %s is non-finite: %v", name, v)
		}
	}
	check("Latency.AvgMs", sig.Latency.AvgMs)
	check("Latency.P95Ms", sig.Latency.P95Ms)
	check("Latency.PrevAvgMs", sig.Latency.PrevAvgMs)
	check("Latency.PrevP95Ms", sig.Latency.PrevP95Ms)
	check("OfferedRPS", sig.OfferedRPS)
	check("MemoryUsedMB", sig.MemoryUsedMB)
	check("PhysicalReadsMedian", sig.PhysicalReadsMedian)
	for k, rs := range sig.Resources {
		check("Utilization", rs.Utilization)
		check("WaitMs", rs.WaitMs)
		check("WaitPct", rs.WaitPct)
		check("PrevWaitMs", rs.PrevWaitMs)
		check("PrevUtilization", rs.PrevUtilization)
		check("WaitLatencyCorr", rs.WaitLatencyCorr)
		_ = k
	}
	for _, v := range sig.LogicalWaitPct {
		check("LogicalWaitPct", v)
	}
}
