package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"

	"daasscale/internal/fsio"
)

// Checkpoint files let a 100k–1M-tenant run be killed and resumed without
// redoing finished shards. The format is a fingerprint — run kind, problem
// dimensions, seed, shard size and sketch accuracy — followed by the next
// shard index and an opaque payload (the merged aggregate, or the
// calibration digests). Because shards are merged in index order and all
// mergeable state is exact, a resumed run's final state is bit-identical to
// an uninterrupted one; a fingerprint mismatch (different spec) is an error
// rather than a silent restart.

const checkpointMagic = uint32(0x46434b31) // "FCK1"

// checkpointFingerprint pins a checkpoint file to one exact run
// configuration.
type checkpointFingerprint struct {
	Kind      string // "fleet" or "calibration"
	DimA      int64  // tenants / configs
	DimB      int64  // days / intervalsPer
	Seed      int64
	ShardSize int64
	AlphaBits uint64 // sketch accuracy, exact IEEE bits
}

func (f checkpointFingerprint) encode() []byte {
	buf := make([]byte, 0, 64)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Kind)))
	buf = append(buf, f.Kind...)
	for _, v := range []uint64{uint64(f.DimA), uint64(f.DimB), uint64(f.Seed), uint64(f.ShardSize), f.AlphaBits} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

func fingerprintFor(kind string, dimA, dimB int, seed int64, shardSize int, alpha float64) checkpointFingerprint {
	return checkpointFingerprint{
		Kind:      kind,
		DimA:      int64(dimA),
		DimB:      int64(dimB),
		Seed:      seed,
		ShardSize: int64(shardSize),
		AlphaBits: math.Float64bits(alpha),
	}
}

// writeCheckpoint atomically replaces path with a checkpoint holding the
// fingerprint, the index of the next shard to run, and payload. The write
// goes through fsio.WriteFileAtomic — temp file in the same directory,
// fsync'd *before* the rename, directory fsync'd after — so a kill or
// power loss mid-write leaves either the old checkpoint or the complete
// new one, never a zero-length or torn file. (The earlier rename-only
// implementation was atomic against process kills but not against power
// loss: without the data fsync the rename could land pointing at
// unsynced, partial contents.) All I/O goes through fsys so the
// crash-consistency harness can fail or tear any step.
func writeCheckpoint(fsys fsio.FS, path string, fp checkpointFingerprint, nextShard int, payload []byte) error {
	fpb := fp.encode()
	buf := make([]byte, 0, 16+len(fpb)+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, checkpointMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fpb)))
	buf = append(buf, fpb...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(nextShard))
	buf = append(buf, payload...)

	if err := fsio.WriteFileAtomicFS(fsys, path, buf, 0o644); err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint loads path. A missing file returns ok=false with no error
// (fresh start); a present file with a different fingerprint is an error —
// resuming someone else's run would silently corrupt the statistics.
func readCheckpoint(fsys fsio.FS, path string, fp checkpointFingerprint) (nextShard int, payload []byte, ok bool, err error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("fleet: checkpoint: %w", err)
	}
	r := aggReader{buf: data}
	if magic := r.u32(); r.err != nil || magic != checkpointMagic {
		return 0, nil, false, fmt.Errorf("fleet: %s is not a checkpoint file", path)
	}
	fpLen := int(r.u32())
	got := r.take(fpLen)
	next := r.i64()
	if r.err != nil {
		return 0, nil, false, fmt.Errorf("fleet: truncated checkpoint %s", path)
	}
	if want := fp.encode(); string(got) != string(want) {
		return 0, nil, false, fmt.Errorf("fleet: checkpoint %s was written by a different run spec (kind/size/seed/shard/accuracy mismatch)", path)
	}
	if next < 0 {
		return 0, nil, false, fmt.Errorf("fleet: checkpoint %s has negative shard index", path)
	}
	return int(next), data[r.off:], true, nil
}

// checkAccuracy refuses a checkpoint payload whose sketches were built at a
// different accuracy than the fingerprint records. Left alone, the first
// shard merge would fail with a bare stats.ErrSketchMismatch, and a
// checkpoint that already covers every shard would never merge at all.
func checkAccuracy(path string, fp checkpointFingerprint, alpha float64) error {
	if math.Float64bits(alpha) != fp.AlphaBits {
		return fmt.Errorf("fleet: checkpoint %s holds sketches of accuracy %v, its fingerprint says %v",
			path, alpha, math.Float64frombits(fp.AlphaBits))
	}
	return nil
}
