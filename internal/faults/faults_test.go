package faults

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
		sum += p.Rate(Kind(k))
	}
	if math.Abs(sum-0.1) > 1e-12 {
		t.Fatalf("rates sum to %v, want 0.1", sum)
	}
	if tr := p.TotalRate(); tr <= 0 || tr > 0.1 {
		t.Fatalf("TotalRate = %v, want (0, 0.1]", tr)
	}
	var zero Plan
	if zero.Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	if zero.TotalRate() != 0 {
		t.Fatalf("zero plan TotalRate = %v", zero.TotalRate())
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
		out = append(out, in.Flush()...)
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

// TestInjectorReorderAndFlush: with only the reorder fault at rate 1, every
// odd Apply releases the held snapshot after the newer one, and Flush
// drains a trailing hold-back.
func TestInjectorReorderAndFlush(t *testing.T) {
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
	fl := in.Flush()
	if len(fl) != 1 || fl[0].Interval != 2 {
		t.Fatalf("Flush = %d snapshots", len(fl))
	}
	if fl2 := in.Flush(); len(fl2) != 0 {
		t.Fatal("second Flush not empty")
	}
	if st := in.Stats(); st.Delivered != 3 || st.Intervals != 3 {
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

func TestCorruptWaitMap(t *testing.T) {
	mk := func() map[telemetry.WaitType]float64 {
		return map[telemetry.WaitType]float64{
			telemetry.WaitType("SOS_SCHEDULER_YIELD"): 100,
			telemetry.WaitType("PAGEIOLATCH_SH"):      200,
			telemetry.WaitType("WRITELOG"):            300,
			telemetry.WaitType("LCK_M_X"):             400,
		}
	}

	var empty Plan
	empty.Rates[KindEmptyWaitMap] = 1
	in := NewInjector(empty, 1)
	m := mk()
	in.CorruptWaitMap(3, m)
	if len(m) != 0 {
		t.Fatalf("empty-map kind left %d entries", len(m))
	}
	if in.Stats().Injected[KindEmptyWaitMap] != 1 {
		t.Fatal("empty-map fault not counted")
	}

	var partial Plan
	partial.Rates[KindPartialWaitMap] = 1
	in = NewInjector(partial, 1)
	m = mk()
	in.CorruptWaitMap(3, m)
	if len(m) != 0 {
		t.Fatalf("partial kind at rate 1 left %d entries", len(m))
	}

	// Determinism: two injectors remove the same subset at rate 0.5.
	partial.Rates[KindPartialWaitMap] = 0.5
	a, b := mk(), mk()
	NewInjector(partial, 9).CorruptWaitMap(7, a)
	NewInjector(partial, 9).CorruptWaitMap(7, b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic partial wait-map corruption: %v vs %v", a, b)
	}

	// Nil/empty maps are a no-op, never a panic.
	NewInjector(partial, 9).CorruptWaitMap(7, nil)
	NewInjector(partial, 9).CorruptWaitMap(7, map[telemetry.WaitType]float64{})
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
		m := telemetry.NewManager(telemetry.DefaultWindow)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 120; i++ {
			for _, fs := range in.Apply(testSnapshot(rng, i)) {
				m.Observe(fs)
			}
			if got, ok := m.Signals(); ok {
				assertFiniteSignals(t, got)
			}
		}
		if m.Quality().Score() >= 1 {
			t.Fatalf("seed %d: aggressive plan left quality pristine: %v", seed, m.Quality())
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
