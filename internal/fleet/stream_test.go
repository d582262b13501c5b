package fleet

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"daasscale/internal/resource"
)

// TestDaysRoundsUpPartialSeries is the regression test for the integer
// truncation bug: a demand series that is not a whole number of days used
// to under-count (1.5 days → 1), silently dropping the partial day from
// every changes-per-day statistic.
func TestDaysRoundsUpPartialSeries(t *testing.T) {
	cases := []struct {
		intervals int
		want      int
	}{
		{0, 0},
		{1, 1},
		{IntervalsPerDay - 1, 1},
		{IntervalsPerDay, 1},
		{IntervalsPerDay + 1, 2},
		{IntervalsPerDay * 3 / 2, 2}, // the 1.5-day case
		{IntervalsPerDay * 7, 7},
	}
	for _, c := range cases {
		tn := Tenant{Demand: make([]resource.Vector, c.intervals)}
		if got := tn.Days(); got != c.want {
			t.Errorf("Days() with %d intervals = %d, want %d", c.intervals, got, c.want)
		}
	}
}

func mustFleetSpec(t *testing.T, tenants, days int, seed int64, opts ...FleetOption) FleetSpec {
	t.Helper()
	spec, err := NewFleetSpec(tenants, days, seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestNewFleetSpecValidation(t *testing.T) {
	if _, err := NewFleetSpec(-1, 7, 1); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("negative tenants: err = %v", err)
	}
	if _, err := NewFleetSpec(10, 0, 1); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("zero days: err = %v", err)
	}
	if _, err := NewCalibrationSpec(-1, 4, 1); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("negative configs: err = %v", err)
	}
	if _, err := NewCalibrationSpec(4, 0, 1); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("zero intervals: err = %v", err)
	}
	spec := mustFleetSpec(t, 1000, 3, 1, WithShardSize(128))
	if got := spec.Shards(); got != 8 {
		t.Errorf("Shards() = %d, want 8", got)
	}
}

// TestStreamMatchesAnalyzeOracle checks the streaming pipeline against the
// in-memory analyze oracle on a 1k fleet: every Analysis field derived
// from integer counters must be bit-identical, and the sketch-resolution
// IEI quantiles must be within the sketch accuracy of the exact sample
// quantiles.
func TestStreamMatchesAnalyzeOracle(t *testing.T) {
	const tenants, days, seed = 1000, 2, 4242
	cat := resource.DefaultCatalog()

	fleet := generateFleet(tenants, days, seed)
	oracle := analyze(fleet, cat)
	res, err := Stream(context.Background(), mustFleetSpec(t, tenants, days, seed, WithShardSize(128)), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Analysis

	if got.Tenants != oracle.Tenants || got.TotalChanges != oracle.TotalChanges {
		t.Errorf("counts differ: got (%d, %d), want (%d, %d)",
			got.Tenants, got.TotalChanges, oracle.Tenants, oracle.TotalChanges)
	}
	if got.IEIWithin60Min != oracle.IEIWithin60Min {
		t.Errorf("IEIWithin60Min = %v, want %v (must be bit-identical)", got.IEIWithin60Min, oracle.IEIWithin60Min)
	}
	if !reflect.DeepEqual(got.ChangesPerDayHist, oracle.ChangesPerDayHist) {
		t.Errorf("ChangesPerDayHist differs:\n got %+v\nwant %+v", got.ChangesPerDayHist, oracle.ChangesPerDayHist)
	}
	for _, f := range []struct {
		name     string
		got, exp float64
	}{
		{"FracAtLeastOnePerDay", got.FracAtLeastOnePerDay, oracle.FracAtLeastOnePerDay},
		{"FracAtLeastSixPerDay", got.FracAtLeastSixPerDay, oracle.FracAtLeastSixPerDay},
		{"FracMoreThan24PerDay", got.FracMoreThan24PerDay, oracle.FracMoreThan24PerDay},
		{"OneStepShare", got.OneStepShare, oracle.OneStepShare},
		{"AtMostTwoStepsShare", got.AtMostTwoStepsShare, oracle.AtMostTwoStepsShare},
	} {
		if f.got != f.exp {
			t.Errorf("%s = %v, want %v (must be bit-identical)", f.name, f.got, f.exp)
		}
	}

	// The IEI sketch quantiles vs the exact inter-event intervals,
	// recomputed here from the oracle fleet.
	var iei []float64
	for i := range fleet {
		events := tenantEvents(&fleet[i], cat)
		for j := 1; j < len(events); j++ {
			iei = append(iei, float64(events[j].Interval-events[j-1].Interval)*5)
		}
	}
	sort.Float64s(iei)
	sk := res.Aggregate.iei
	if int(sk.Count()) != len(iei) {
		t.Fatalf("sketch holds %d intervals, oracle has %d", sk.Count(), len(iei))
	}
	alpha := sk.Accuracy()
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		k := int(math.Ceil(q * float64(len(iei)-1)))
		exact := iei[k]
		approx := sk.Quantile(q)
		if math.Abs(approx-exact) > alpha*math.Abs(exact)+1e-9 {
			t.Errorf("IEI q=%v: sketch %v vs exact %v exceeds relative accuracy %v", q, approx, exact, alpha)
		}
	}
}

// TestStreamBitIdenticalAcrossWorkersAndShards is the determinism
// acceptance criterion: the merged aggregate — not just the derived
// Analysis — must be byte-for-byte identical at any worker count and any
// shard size.
func TestStreamBitIdenticalAcrossWorkersAndShards(t *testing.T) {
	const tenants, days, seed = 300, 2, 99
	run := func(workers, shard int) (Analysis, []byte) {
		res, err := Stream(context.Background(),
			mustFleetSpec(t, tenants, days, seed, WithShardSize(shard), WithParallelism(workers)), nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := res.Aggregate.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return res.Analysis, raw
	}
	wantA, wantRaw := run(1, 64)
	for _, c := range []struct{ workers, shard int }{{4, 64}, {4, 17}, {2, 300}, {8, 1}} {
		gotA, gotRaw := run(c.workers, c.shard)
		if !reflect.DeepEqual(gotA, wantA) {
			t.Errorf("workers=%d shard=%d: Analysis differs from serial run", c.workers, c.shard)
		}
		if string(gotRaw) != string(wantRaw) {
			t.Errorf("workers=%d shard=%d: aggregate bytes differ from serial run", c.workers, c.shard)
		}
	}
}

// TestStreamVisitor checks the visitor contract: shards arrive in index
// order with correct extents, and a visitor error aborts the run.
func TestStreamVisitor(t *testing.T) {
	const tenants, shard = 100, 32
	var visited []ShardResult
	res, err := Stream(context.Background(),
		mustFleetSpec(t, tenants, 1, 7, WithShardSize(shard), WithParallelism(4)),
		func(sr ShardResult) error {
			visited = append(visited, ShardResult{Index: sr.Index, FirstTenant: sr.FirstTenant, Tenants: sr.Tenants})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []ShardResult{{0, 0, 32, nil}, {1, 32, 32, nil}, {2, 64, 32, nil}, {3, 96, 4, nil}}
	if !reflect.DeepEqual(visited, want) {
		t.Errorf("visits = %+v, want %+v", visited, want)
	}
	if res.Shards != 4 || res.Tenants != tenants {
		t.Errorf("result sizes = (%d shards, %d tenants)", res.Shards, res.Tenants)
	}

	boom := errors.New("boom")
	_, err = Stream(context.Background(),
		mustFleetSpec(t, tenants, 1, 7, WithShardSize(shard)),
		func(sr ShardResult) error {
			if sr.Index == 1 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Errorf("visitor error: err = %v", err)
	}
}

// TestStreamWarmPathAllocs enforces the allocation ceiling on the
// per-tenant warm path: shard buffers are reused, so amortized allocations
// per tenant must stay flat (sketch map growth and the occasional buffer
// regrow only).
func TestStreamWarmPathAllocs(t *testing.T) {
	const tenants, shard = 768, 256
	spec := mustFleetSpec(t, tenants, 1, 5, WithShardSize(shard), WithParallelism(1))

	// Warm up once (pool setup, catalog, first-shard buffer growth).
	if _, err := Stream(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Stream(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perTenant := float64(after.Mallocs-before.Mallocs) / float64(tenants)
	// The ceiling is deliberately loose (goroutine + channel setup per run,
	// sketch map rehashing) but far below the ~300 allocations a
	// slice-materialized tenant costs.
	const ceiling = 48.0
	if perTenant > ceiling {
		t.Errorf("warm path allocates %.1f objects/tenant, ceiling %v", perTenant, ceiling)
	}
}

// TestStreamCalibrationBitIdentical mirrors the fleet determinism test for
// the calibration pipeline.
func TestStreamCalibrationBitIdentical(t *testing.T) {
	const configs, intervals, seed = 10, 2, 31
	run := func(workers, shard int) ([]byte, CalibrationResult) {
		spec, err := NewCalibrationSpec(configs, intervals, seed, WithShardSize(shard), WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		res, err := StreamCalibration(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := encodeCalibrationDigests(res.Digests)
		if err != nil {
			t.Fatal(err)
		}
		return raw, res
	}
	wantRaw, wantRes := run(1, 4)
	for _, c := range []struct{ workers, shard int }{{4, 4}, {2, 3}, {4, 1}, {1, 10}} {
		gotRaw, gotRes := run(c.workers, c.shard)
		if string(gotRaw) != string(wantRaw) {
			t.Errorf("workers=%d shard=%d: digest bytes differ", c.workers, c.shard)
		}
		if !reflect.DeepEqual(gotRes.Thresholds, wantRes.Thresholds) {
			t.Errorf("workers=%d shard=%d: thresholds differ", c.workers, c.shard)
		}
	}
}

// TestWaitDigestMatchesExactCalibrate feeds the identical sample stream to
// the exact calibrate oracle and to WaitDigests, and checks the
// sketch-derived thresholds stay within the documented error bound of the
// exact ones, with correlation exactly equal while the reservoir holds
// every sample.
func TestWaitDigestMatchesExactCalibrate(t *testing.T) {
	samples, err := collectWaitSamples(120, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	digests := newCalibrationDigests(0)
	for _, s := range samples {
		for _, d := range digests {
			if d.Kind() == s.kind {
				d.Observe(s.utilization, s.waitMs, s.waitPct)
			}
		}
	}
	exact := calibrate(samples)
	approx := CalibrateDigests(digests)
	for _, d := range digests {
		k := d.Kind()
		if d.LowCount() < 30 || d.HighCount() < 30 {
			t.Fatalf("kind %v: bands too small (%d low, %d high) to exercise calibration", k, d.LowCount(), d.HighCount())
		}
		alpha := d.LowMs().Accuracy()
		for _, pair := range []struct {
			name     string
			got, exp float64
		}{
			{"WaitLowMs", approx.WaitLowMs[k], exact.WaitLowMs[k]},
			{"WaitHighMs", approx.WaitHighMs[k], exact.WaitHighMs[k]},
		} {
			// Clamping can only shrink the gap, so the pre-clamp bound holds.
			if math.Abs(pair.got-pair.exp) > alpha*pair.exp+1e-9 {
				t.Errorf("kind %v %s: digest %v vs exact %v exceeds relative accuracy %v",
					k, pair.name, pair.got, pair.exp, alpha)
			}
		}

		exactCorr, err := correlation(samples, k)
		if err != nil {
			t.Fatal(err)
		}
		gotCorr, err := d.Correlation()
		if err != nil {
			t.Fatal(err)
		}
		if gotCorr != exactCorr {
			t.Errorf("kind %v: digest correlation %v != exact %v (reservoir holds all samples)", k, gotCorr, exactCorr)
		}

		exactSep := splitByUtilization(samples, k).separation()
		gotSep := d.Separation()
		if relDiff(gotSep, exactSep) > 3*alpha {
			t.Errorf("kind %v: digest separation %v vs exact %v", k, gotSep, exactSep)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / den
}

// TestStream10kSmoke is the CI smoke: a 10k-tenant streaming run completes
// with shard-bounded memory and a sane Analysis. Kept under -short because
// it is the budget version of the 100k benchmark run.
func TestStream10kSmoke(t *testing.T) {
	tenants := 10_000
	if testing.Short() {
		tenants = 2_000
	}
	res, err := Stream(context.Background(),
		mustFleetSpec(t, tenants, 1, benchLikeSeed, WithShardSize(512)), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Analysis
	if a.Tenants != tenants || a.TotalChanges == 0 {
		t.Fatalf("smoke analysis empty: %+v", a)
	}
	if a.IEIWithin60Min <= 0 || a.IEIWithin60Min > 1 {
		t.Errorf("IEIWithin60Min = %v out of range", a.IEIWithin60Min)
	}
	if a.OneStepShare <= 0.5 {
		t.Errorf("OneStepShare = %v, paper reports most changes are single-step", a.OneStepShare)
	}
}

const benchLikeSeed = 42

// TestWaitDigestMergeKindMismatch pins the guard against merging digests of
// different resources.
func TestWaitDigestMergeKindMismatch(t *testing.T) {
	a := NewWaitDigest(resource.CPU, 0)
	b := NewWaitDigest(resource.DiskIO, 0)
	if err := a.Merge(b); err == nil {
		t.Error("merging CPU and DiskIO digests should fail")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

// TestStreamContextCancel checks a canceled context aborts the run with the
// context error.
func TestStreamContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Stream(ctx, mustFleetSpec(t, 5000, 1, 3, WithShardSize(64)), nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestAggregateBinaryRoundTrip checks aggregate state survives its
// serialization exactly, including archetype counters.
func TestAggregateBinaryRoundTrip(t *testing.T) {
	res, err := Stream(context.Background(), mustFleetSpec(t, 100, 1, 11, WithShardSize(32)), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.Aggregate.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := new(Aggregate)
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	raw2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Error("aggregate round trip is not byte-identical")
	}
	if !reflect.DeepEqual(back.Analysis(), res.Analysis) {
		t.Error("round-tripped aggregate renders a different Analysis")
	}
	if !reflect.DeepEqual(archetypeChangesPerDay(back), archetypeChangesPerDay(res.Aggregate)) {
		t.Error("round-tripped archetype rates differ")
	}
	if err := back.UnmarshalBinary(raw[:len(raw)-3]); err == nil {
		t.Error("truncated aggregate should not decode")
	}
	if err := back.UnmarshalBinary(append(append([]byte(nil), raw...), 0)); err == nil {
		t.Error("trailing bytes should not decode")
	}
}

// TestArchetypeRatesOrdering sanity-checks the streaming per-archetype
// rates on a larger fleet: every archetype is present, and spiky tenants
// change containers more often than steady ones.
func TestArchetypeRatesOrdering(t *testing.T) {
	res, err := Stream(context.Background(), mustFleetSpec(t, 1000, 2, 8, WithShardSize(200)), nil)
	if err != nil {
		t.Fatal(err)
	}
	rates := archetypeChangesPerDay(res.Aggregate)
	if len(rates) != int(numArchetypes) {
		t.Fatalf("rates for %d archetypes, want %d", len(rates), int(numArchetypes))
	}
	if rates[Spiky] <= rates[Steady] {
		t.Errorf("spiky rate %v should exceed steady rate %v", rates[Spiky], rates[Steady])
	}
}
