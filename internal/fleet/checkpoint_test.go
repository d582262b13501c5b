package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"daasscale/internal/diskfaults"
	"daasscale/internal/fsio"
	"daasscale/internal/stats"
)

// withAccuracy builds the quantile sketches at a non-default relative
// accuracy, which a resumed run must match.
func withAccuracy(alpha float64) FleetOption {
	return func(o *streamOpts) { o.alpha = alpha }
}

// withCheckpointEvery writes a checkpoint every n shards instead of 8.
func withCheckpointEvery(n int) FleetOption {
	return func(o *streamOpts) { o.checkpointEvery = n }
}

// withCheckpointFS routes checkpoint reads and writes through fsys, the
// crash-simulating filesystem of the crash-consistency tests.
func withCheckpointFS(fsys fsio.FS) FleetOption {
	return func(o *streamOpts) { o.fs = fsys }
}

// TestStreamKillAndResume is the checkpoint acceptance criterion: a run
// killed mid-flight and resumed from its checkpoint produces an aggregate
// byte-identical to an uninterrupted run.
func TestStreamKillAndResume(t *testing.T) {
	const tenants, days, seed, shard = 240, 1, 1234, 32
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	uninterrupted, err := Stream(context.Background(),
		mustFleetSpec(t, tenants, days, seed, WithShardSize(shard)), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := uninterrupted.Aggregate.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: die after the fourth shard (the visitor stands in for
	// a kill). Checkpoints are written every 2 shards, so shards 0–3 are on
	// disk.
	killed := errors.New("simulated kill")
	spec := mustFleetSpec(t, tenants, days, seed,
		WithShardSize(shard), WithCheckpoint(ckpt), withCheckpointEvery(2))
	_, err = Stream(context.Background(), spec, func(sr ShardResult) error {
		if sr.Index == 4 {
			return killed
		}
		return nil
	})
	if !errors.Is(err, killed) {
		t.Fatalf("first run: err = %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written before the kill: %v", err)
	}

	// Second attempt with the same spec resumes and completes.
	res, err := Stream(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedShards == 0 {
		t.Error("resume did not skip any shards")
	}
	gotRaw, err := res.Aggregate.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotRaw) != string(wantRaw) {
		t.Error("resumed aggregate differs from uninterrupted run")
	}
	if !reflect.DeepEqual(res.Analysis, uninterrupted.Analysis) {
		t.Error("resumed Analysis differs from uninterrupted run")
	}

	// A third run resumes from the final checkpoint: everything is already
	// done, and the result is still identical.
	res3, err := Stream(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.ResumedShards != res3.Shards {
		t.Errorf("third run resumed %d of %d shards", res3.ResumedShards, res3.Shards)
	}
	raw3, err := res3.Aggregate.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw3) != string(wantRaw) {
		t.Error("fully-resumed aggregate differs")
	}
}

// TestCheckpointCrashDurable runs the kill-and-resume cycle on the
// crash-simulating filesystem via withCheckpointFS, with a simulated
// power loss between the kill and the resume: because checkpoint writes
// fsync before the rename and fsync the directory after, the crash image
// must hold a complete checkpoint, and the resumed aggregate must be
// byte-identical to an uninterrupted run.
func TestCheckpointCrashDurable(t *testing.T) {
	const tenants, days, seed, shard = 240, 1, 1234, 32
	mem := diskfaults.NewMemFS()
	if err := mem.MkdirAll("/ck", 0o755); err != nil {
		t.Fatal(err)
	}
	const ckpt = "/ck/fleet.ckpt"

	uninterrupted, err := Stream(context.Background(),
		mustFleetSpec(t, tenants, days, seed, WithShardSize(shard)), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := uninterrupted.Aggregate.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	killed := errors.New("simulated kill")
	spec := mustFleetSpec(t, tenants, days, seed,
		WithShardSize(shard), WithCheckpoint(ckpt), withCheckpointEvery(2),
		withCheckpointFS(mem))
	_, err = Stream(context.Background(), spec, func(sr ShardResult) error {
		if sr.Index == 4 {
			return killed
		}
		return nil
	})
	if !errors.Is(err, killed) {
		t.Fatalf("first run: err = %v", err)
	}

	// Power loss: only fsync'd state survives.
	mem.Crash()

	res, err := Stream(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedShards == 0 {
		t.Error("resume after crash did not skip any shards")
	}
	gotRaw, err := res.Aggregate.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotRaw) != string(wantRaw) {
		t.Error("crash-resumed aggregate differs from uninterrupted run")
	}
}

// TestCheckpointFingerprintMismatch: resuming with a different spec must
// fail loudly instead of silently mixing two runs' statistics.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	if _, err := Stream(context.Background(),
		mustFleetSpec(t, 64, 1, 1, WithShardSize(32), WithCheckpoint(ckpt)), nil); err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]FleetSpec{
		"seed":      mustFleetSpec(t, 64, 1, 2, WithShardSize(32), WithCheckpoint(ckpt)),
		"tenants":   mustFleetSpec(t, 65, 1, 1, WithShardSize(32), WithCheckpoint(ckpt)),
		"days":      mustFleetSpec(t, 64, 2, 1, WithShardSize(32), WithCheckpoint(ckpt)),
		"shardSize": mustFleetSpec(t, 64, 1, 1, WithShardSize(16), WithCheckpoint(ckpt)),
		"accuracy":  mustFleetSpec(t, 64, 1, 1, WithShardSize(32), withAccuracy(0.05), WithCheckpoint(ckpt)),
	} {
		if _, err := Stream(context.Background(), spec, nil); err == nil {
			t.Errorf("%s mismatch: resume should fail", name)
		}
	}
}

// TestCheckpointAccuracyMismatch: a checkpoint whose fingerprint matches
// the run but whose payload sketches were built at another accuracy must be
// refused on resume with an error naming the checkpoint — both when shards
// remain to merge (the mismatch used to surface as a bare
// stats.ErrSketchMismatch) and when the checkpoint already covers every
// shard (nothing merges, so it used to be accepted).
func TestCheckpointAccuracyMismatch(t *testing.T) {
	dir := t.TempDir()
	aggPayload, err := NewAggregate(0.05).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	calPayload, err := encodeCalibrationDigests(newCalibrationDigests(0.05))
	if err != nil {
		t.Fatal(err)
	}
	for _, done := range []int{1, 2} {
		ckpt := filepath.Join(dir, fmt.Sprintf("fleet-%d.ckpt", done))
		spec := mustFleetSpec(t, 64, 1, 1, WithShardSize(32), WithCheckpoint(ckpt))
		if err := writeCheckpoint(fsio.OS, ckpt, spec.fingerprint(), done, aggPayload); err != nil {
			t.Fatal(err)
		}
		_, err := Stream(context.Background(), spec, nil)
		if err == nil || errors.Is(err, stats.ErrSketchMismatch) {
			t.Errorf("fleet, %d of 2 shards done: err = %v, want a checkpoint accuracy error", done, err)
		}

		ckpt = filepath.Join(dir, fmt.Sprintf("cal-%d.ckpt", done))
		calSpec, err := NewCalibrationSpec(4, 1, 1, WithShardSize(2), WithCheckpoint(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeCheckpoint(fsio.OS, ckpt, calSpec.fingerprint(), done, calPayload); err != nil {
			t.Fatal(err)
		}
		_, err = StreamCalibration(context.Background(), calSpec, nil)
		if err == nil || errors.Is(err, stats.ErrSketchMismatch) {
			t.Errorf("calibration, %d of 2 shards done: err = %v, want a checkpoint accuracy error", done, err)
		}
	}
}

// TestCheckpointGarbageFile: a file that is not a checkpoint errors rather
// than being treated as a fresh start (it might be the user's data).
func TestCheckpointGarbageFile(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "not-a-checkpoint")
	if err := os.WriteFile(ckpt, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Stream(context.Background(),
		mustFleetSpec(t, 64, 1, 1, WithShardSize(32), WithCheckpoint(ckpt)), nil); err == nil {
		t.Error("garbage checkpoint file should error")
	}
}

// TestCalibrationKillAndResume mirrors the fleet kill/resume test for the
// calibration pipeline.
func TestCalibrationKillAndResume(t *testing.T) {
	const configs, intervals, seed = 8, 2, 55
	ckpt := filepath.Join(t.TempDir(), "cal.ckpt")
	mustSpec := func(opts ...FleetOption) CalibrationSpec {
		spec, err := NewCalibrationSpec(configs, intervals, seed, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}

	base, err := StreamCalibration(context.Background(), mustSpec(WithShardSize(2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := encodeCalibrationDigests(base.Digests)
	if err != nil {
		t.Fatal(err)
	}

	killed := errors.New("simulated kill")
	spec := mustSpec(WithShardSize(2), WithCheckpoint(ckpt), withCheckpointEvery(1))
	if _, err := StreamCalibration(context.Background(), spec, func(cs CalibrationShard) error {
		if cs.Index == 2 {
			return killed
		}
		return nil
	}); !errors.Is(err, killed) {
		t.Fatalf("first run: err = %v", err)
	}

	res, err := StreamCalibration(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedShards == 0 {
		t.Error("resume did not skip any shards")
	}
	gotRaw, err := encodeCalibrationDigests(res.Digests)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotRaw) != string(wantRaw) {
		t.Error("resumed calibration digests differ from uninterrupted run")
	}
	if !reflect.DeepEqual(res.Thresholds, base.Thresholds) {
		t.Error("resumed thresholds differ")
	}
}

// TestWaitDigestBinaryRoundTrip checks digest serialization is exact and
// rejects corruption.
func TestWaitDigestBinaryRoundTrip(t *testing.T) {
	res, err := StreamCalibration(context.Background(), func() CalibrationSpec {
		s, err := NewCalibrationSpec(4, 2, 9, WithShardSize(2))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Digests {
		raw, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back := new(WaitDigest)
		if err := back.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		raw2, err := back.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(raw2) {
			t.Errorf("kind %v: digest round trip is not byte-identical", d.Kind())
		}
		if back.Kind() != d.Kind() || back.LowCount() != d.LowCount() || back.HighCount() != d.HighCount() {
			t.Errorf("kind %v: round-tripped digest lost state", d.Kind())
		}
		if err := back.UnmarshalBinary(raw[:len(raw)-2]); err == nil {
			t.Error("truncated digest should not decode")
		}
	}
	mixed := newCalibrationDigests(0)[0]
	mixed.highMs = stats.NewSketch(0.05)
	raw, err := mixed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(WaitDigest).UnmarshalBinary(raw); err == nil {
		t.Error("a digest mixing sketch accuracies should not decode")
	}
}

// TestCheckpointTornFileDetected is the crash-durability test for the
// checkpoint format: a checkpoint truncated at any byte boundary — the
// torn state a power loss could have left before writeCheckpoint grew its
// fsync-before-rename discipline — must be detected as corrupt (or, for
// cuts inside the payload, surface as a payload decode error upstream),
// never silently resumed from.
func TestCheckpointTornFileDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	fp := fingerprintFor("fleet", 64, 1, 1, 32, 0.01)
	payload := []byte("aggregate-payload-bytes")
	if err := writeCheckpoint(fsio.OS, path, fp, 3, payload); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := len(whole) - len(payload)
	for cut := 0; cut < headerLen; cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := readCheckpoint(fsio.OS, path, fp); err == nil {
			t.Fatalf("cut at byte %d: torn checkpoint header read back without error", cut)
		}
	}
	// A cut inside the payload leaves a structurally valid checkpoint with
	// a short payload; the payload decoders own that detection. Assert the
	// fingerprint/shard framing still reads exactly and returns the
	// truncated payload verbatim, so decoders see the torn bytes.
	cut := headerLen + len(payload)/2
	if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	next, got, ok, err := readCheckpoint(fsio.OS, path, fp)
	if err != nil || !ok || next != 3 {
		t.Fatalf("payload cut: next=%d ok=%v err=%v, want 3 true nil", next, ok, err)
	}
	if string(got) != string(payload[:len(payload)/2]) {
		t.Fatalf("payload cut: got %q", got)
	}
	// And the full file still round-trips.
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	next, got, ok, err = readCheckpoint(fsio.OS, path, fp)
	if err != nil || !ok || next != 3 || string(got) != string(payload) {
		t.Fatalf("full file: next=%d ok=%v err=%v payload=%q", next, ok, err, got)
	}
}
