package ledger

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"daasscale/internal/actuate"
	"daasscale/internal/core"
	"daasscale/internal/fabric"
	"daasscale/internal/faults"
	"daasscale/internal/fsio"
	"daasscale/internal/loop"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/sim"
	"daasscale/internal/telemetry"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// randRecord builds a fully populated DecisionRecord from one RNG draw
// sequence, exercising every codec field including non-finite floats.
func randRecord(rng *rand.Rand) loop.DecisionRecord {
	strs := []string{"", "B2", "tenant-0042", "rule: p95 900ms > goal 500ms → scale up", "väit-λ"}
	str := func() string { return strs[rng.Intn(len(strs))] }
	f := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Inf(1)
		case 2:
			return math.NaN()
		case 3:
			return -rng.Float64() * 1e6
		default:
			return rng.Float64() * 1e4
		}
	}
	var r loop.DecisionRecord
	r.Tenant = str()
	r.Interval = rng.Intn(1 << 20)
	r.Snapshot = telemetry.Snapshot{
		Interval:       rng.Intn(1 << 20),
		Container:      str(),
		Step:           rng.Intn(16),
		Cost:           f(),
		AvgLatencyMs:   f(),
		P95LatencyMs:   f(),
		Transactions:   f(),
		OfferedRPS:     f(),
		MemoryUsedMB:   f(),
		PhysicalReads:  f(),
		PhysicalWrites: f(),
	}
	for _, k := range resource.Kinds {
		r.Snapshot.Utilization[k] = f()
		r.Snapshot.UtilizationPeak[k] = f()
	}
	for c := range r.Snapshot.WaitMs {
		r.Snapshot.WaitMs[c] = f()
	}
	r.Actual, r.Target = str(), str()
	r.Changed, r.Observed, r.Submitted = rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
	r.BalloonTargetMB = f()
	if n := rng.Intn(4); n > 0 {
		for i := 0; i < n; i++ {
			r.Explanations = append(r.Explanations, str())
		}
	}
	r.Delivered = rng.Intn(4)
	r.Faults = faults.Stats{Intervals: rng.Intn(1000), Delivered: rng.Intn(1000)}
	for i := range r.Faults.Injected {
		r.Faults.Injected[i] = rng.Intn(100)
	}
	r.Actuation = actuate.Stats{
		Submitted: rng.Intn(50), Ops: rng.Intn(50), Attempts: rng.Intn(50),
		Retries: rng.Intn(50), Applied: rng.Intn(50), Throttled: rng.Intn(50),
		TransientFailures: rng.Intn(50), Refused: rng.Intn(50),
		Superseded: rng.Intn(50), Expired: rng.Intn(50),
		SumEffectIntervals: rng.Intn(500), MaxEffectIntervals: rng.Intn(50),
	}
	r.Node = rng.Intn(18) - 1 // −1 = off-fabric
	if r.Node >= 0 {
		for _, ch := range fabric.PressureChannels {
			r.NodePressure[ch] = f()
			r.WaitInflation[ch] = f()
		}
	}
	return r
}

// recordsEqual compares two records by canonical encoding, which treats
// NaN bit patterns exactly (DeepEqual would reject NaN == NaN).
func recordsEqual(a, b loop.DecisionRecord) bool {
	return bytes.Equal(EncodeDecision(nil, &a), EncodeDecision(nil, &b))
}

func TestDecisionCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		want := randRecord(rng)
		payload := EncodeDecision(nil, &want)
		got, err := DecodeDecision(payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !recordsEqual(want, got) {
			t.Fatalf("record %d: round trip drifted\nwant %+v\ngot  %+v", i, want, got)
		}
		// Re-encoding the decoded record must be byte-identical — the
		// codec is canonical.
		if !bytes.Equal(payload, EncodeDecision(nil, &got)) {
			t.Fatalf("record %d: re-encoding is not byte-identical", i)
		}
		// Any truncation of the payload must fail to decode.
		if _, err := DecodeDecision(payload[:len(payload)-1]); err == nil {
			t.Fatalf("record %d: truncated payload decoded", i)
		}
		// Trailing garbage must fail too.
		if _, err := DecodeDecision(append(append([]byte{}, payload...), 0xFF)); err == nil {
			t.Fatalf("record %d: payload with trailing bytes decoded", i)
		}
	}
}

func TestLineItemCodecRoundTrip(t *testing.T) {
	want := LineItem{Tenant: "t-7", Interval: 12, Container: "B4", Cost: 13.25}
	got, err := DecodeLineItem(EncodeLineItem(nil, &want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	if _, err := DecodeLineItem(EncodeLineItem(nil, &want)[:5]); err == nil {
		t.Fatal("truncated line item decoded")
	}
}

func writeTestLedger(t *testing.T, path string, recs []loop.DecisionRecord, opts ...WriterOption) {
	t.Helper()
	w, err := OpenWriter(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{W: w}
	for _, r := range recs {
		rec.Record(r)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReplayRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := make([]loop.DecisionRecord, 40)
	for i := range recs {
		recs[i] = randRecord(rng)
	}
	path := filepath.Join(t.TempDir(), "t.ledger")
	writeTestLedger(t, path, recs)

	log, err := ReplayFS(fsio.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Fatal("clean ledger reported truncated")
	}
	got := log.Decisions()
	if len(got) != len(recs) {
		t.Fatalf("replayed %d decisions, want %d", len(got), len(recs))
	}
	items := log.Items()
	if len(items) != len(recs) {
		t.Fatalf("replayed %d line items, want %d", len(items), len(recs))
	}
	for i := range recs {
		if !recordsEqual(recs[i], got[i]) {
			t.Fatalf("decision %d drifted", i)
		}
		if want := LineItemFor(recs[i]); !bytes.Equal(EncodeLineItem(nil, &want), EncodeLineItem(nil, &items[i])) {
			t.Fatalf("line item %d drifted: got %+v want %+v", i, items[i], want)
		}
	}
	if tail := log.Tail(); tail.Unbilled || tail.Last.Interval != recs[len(recs)-1].Interval {
		t.Fatalf("Tail = %+v, want billed interval %d", tail, recs[len(recs)-1].Interval)
	}
}

// TestTornTailRecovery is the crash-durability property: for a ledger
// truncated at *every* byte boundary inside its final record, Replay
// must recover exactly the preceding intact records, and OpenWriter must
// truncate the torn tail and support appending a fresh record afterwards.
func TestTornTailRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recs := []loop.DecisionRecord{randRecord(rng), randRecord(rng), randRecord(rng)}
	dir := t.TempDir()
	path := filepath.Join(dir, "t.ledger")
	writeTestLedger(t, path, recs)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := ReplayFS(fsio.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Entries) != 6 {
		t.Fatalf("expected 6 entries, got %d", len(log.Entries))
	}
	// frameEnds[i] is the byte offset just past entry i; a cut lands a
	// reader at the largest frame end ≤ the cut.
	frameEnds := []int64{headerLen}
	for _, e := range log.Entries {
		var plen int
		if e.Decision != nil {
			plen = len(EncodeDecision(nil, e.Decision))
		} else {
			plen = len(EncodeLineItem(nil, e.Item))
		}
		frameEnds = append(frameEnds, frameEnds[len(frameEnds)-1]+int64(frameOverhead+plen))
	}
	goodFor := func(cut int64) (good int64, entries int) {
		for i := len(frameEnds) - 1; i >= 0; i-- {
			if frameEnds[i] <= cut {
				return frameEnds[i], i
			}
		}
		t.Fatalf("cut %d before header end", cut)
		return 0, 0
	}

	start4th, _ := goodFor(frameEnds[4]) // start of the 3rd record's decision frame
	for cut := start4th; cut < int64(len(whole)); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantGood, wantEntries := goodFor(cut)
		log, err := ReplayFS(fsio.OS, path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if log.Truncated != (cut > wantGood) {
			t.Fatalf("cut %d: Truncated=%v, want %v", cut, log.Truncated, cut > wantGood)
		}
		if log.GoodBytes != wantGood {
			t.Fatalf("cut %d: recovered to %d, want %d", cut, log.GoodBytes, wantGood)
		}
		if len(log.Entries) != wantEntries {
			t.Fatalf("cut %d: %d entries, want %d", cut, len(log.Entries), wantEntries)
		}
		got := log.Decisions()
		for i := range got {
			if !recordsEqual(got[i], recs[i]) {
				t.Fatalf("cut %d: intact decision %d drifted", cut, i)
			}
		}

		// Reopen for append: the torn tail must be truncated away and a
		// fresh append must land cleanly after the last good record.
		w, err := OpenWriter(path)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if w.recovered != cut-wantGood {
			t.Fatalf("cut %d: recovered %d bytes, want %d", cut, w.recovered, cut-wantGood)
		}
		if err := w.AppendDecision(recs[2]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		log, err = ReplayFS(fsio.OS, path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if log.Truncated {
			t.Fatalf("cut %d: ledger still torn after recovery append", cut)
		}
		got = log.Decisions()
		if len(got) == 0 || !recordsEqual(got[len(got)-1], recs[2]) {
			t.Fatalf("cut %d: post-recovery append drifted", cut)
		}
	}
}

// TestCorruptedMidFileRecord: a flipped bit inside an earlier record fails
// its checksum, and everything from that record on is treated as torn —
// checksums bound the blast radius to a suffix, never a silent misparse.
func TestCorruptedMidFileRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	recs := []loop.DecisionRecord{randRecord(rng), randRecord(rng), randRecord(rng)}
	path := filepath.Join(t.TempDir(), "t.ledger")
	writeTestLedger(t, path, recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+frameOverhead/2] ^= 0x40 // inside the first frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := ReplayFS(fsio.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Truncated || len(log.Entries) != 0 {
		t.Fatalf("corrupted first record: %d entries, truncated=%v; want 0, true", len(log.Entries), log.Truncated)
	}
}

func TestOpenWriterRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-ledger")
	if err := os.WriteFile(path, []byte("hello, I am your thesis draft"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWriter(path); err == nil {
		t.Fatal("garbage file opened as ledger")
	}
	if _, err := ReplayFS(fsio.OS, path); err == nil {
		t.Fatal("garbage file replayed as ledger")
	}
}

func TestWriterGroupCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	path := filepath.Join(t.TempDir(), "t.ledger")
	w, err := OpenWriter(path, WithSyncEvery(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.AppendDecision(randRecord(rng)); err != nil {
			t.Fatal(err)
		}
	}
	preSyncs := w.Syncs()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if preSyncs != 0 || w.Syncs() != 1 {
		t.Fatalf("group commit: %d syncs before close, %d after; want 0, 1", preSyncs, w.Syncs())
	}
	log, err := ReplayFS(fsio.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Decisions()) != 10 {
		t.Fatalf("replayed %d, want 10", len(log.Decisions()))
	}
}

// simGolden runs one single-tenant simulation with both a live Collector
// and a ledger Recorder attached, then asserts Replay ≡ live — every
// decision record byte-identical and every line item re-deriving the
// snapshot's cost.
func simGolden(t *testing.T, name string, fp faults.Plan, act actuate.Config) {
	t.Helper()
	w, err := workload.ByName("ds2")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ByName("trace3", 5)
	if err != nil {
		t.Fatal(err)
	}
	cat := resource.LockStepCatalog()
	scaler, err := core.New(core.Config{
		Catalog: cat,
		Initial: cat.AtStep(5),
		Goal:    core.LatencyGoal{Kind: core.GoalP95, Ms: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".ledger")
	lw, err := OpenWriter(path, WithSyncEvery(32))
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{W: lw}
	runner := sim.NewRunner(sim.WithSeed(5), sim.WithFaults(fp), sim.WithActuation(act))
	res, err := runner.Run(context.Background(), sim.Spec{
		Workload: w,
		Trace:    tr,
		Policy:   policy.NewAuto(scaler),
		Seed:     5,
		GoalMs:   500,
		Audit:    true,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	live := res.Audit
	if len(live) == 0 {
		t.Fatal("no live audit records")
	}
	log, err := ReplayFS(fsio.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Fatal("clean run ledger reported truncated")
	}
	replayed := log.Decisions()
	if len(replayed) != len(live) {
		t.Fatalf("replayed %d decisions, live run has %d", len(replayed), len(live))
	}
	for i := range live {
		if !bytes.Equal(EncodeDecision(nil, &live[i]), EncodeDecision(nil, &replayed[i])) {
			t.Fatalf("%s: decision %d not byte-identical to live record", name, i)
		}
		// The looser structural check too, for fields DeepEqual can see.
		if !reflect.DeepEqual(normalize(live[i]), normalize(replayed[i])) {
			t.Fatalf("%s: decision %d not DeepEqual to live record", name, i)
		}
	}
	items := log.Items()
	if len(items) != len(live) {
		t.Fatalf("%d line items for %d decisions", len(items), len(live))
	}
	var billed float64
	for i, it := range items {
		want := LineItemFor(live[i])
		if it != want && !(it.Cost != it.Cost && want.Cost != want.Cost) {
			t.Fatalf("%s: line item %d: got %+v want %+v", name, i, it, want)
		}
		billed += it.Cost
	}
	if math.Abs(billed-res.TotalCost) > 1e-9*math.Max(1, math.Abs(res.TotalCost)) {
		t.Fatalf("%s: ledger bills %v, live run cost %v", name, billed, res.TotalCost)
	}
}

func TestReplayEqualsLiveClean(t *testing.T) {
	simGolden(t, "clean", faults.Plan{}, actuate.Config{})
}

func TestReplayEqualsLiveFaults(t *testing.T) {
	simGolden(t, "faults", faults.Uniform(0.1), actuate.Config{})
}

func TestReplayEqualsLiveChaos(t *testing.T) {
	simGolden(t, "chaos", faults.Uniform(0.1), actuate.Config{
		Seed:             1,
		LatencyIntervals: 1,
		FailRate:         0.1,
	})
}

// normalize maps empty-but-non-nil explanation slices to nil so DeepEqual
// compares semantics, not allocation history.
func normalize(r loop.DecisionRecord) loop.DecisionRecord {
	if len(r.Explanations) == 0 {
		r.Explanations = nil
	}
	// NaN fields compare unequal under DeepEqual though the bits match;
	// the byte-level check already covers exactness, so zero them here.
	zap := func(v *float64) {
		if *v != *v {
			*v = 0
		}
	}
	zap(&r.Snapshot.Cost)
	zap(&r.Snapshot.AvgLatencyMs)
	zap(&r.Snapshot.P95LatencyMs)
	zap(&r.BalloonTargetMB)
	return r
}
