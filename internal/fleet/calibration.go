package fleet

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"

	"daasscale/internal/engine"
	"daasscale/internal/estimator"
	"daasscale/internal/exec"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

// calibrationKinds are the resources the Section 4.1 calibration covers.
var calibrationKinds = []resource.Kind{resource.CPU, resource.DiskIO}

// CalibrationSpec describes one streaming threshold calibration: how many
// randomized (workload, container, load) configurations to simulate, for
// how many billing intervals each, from which seed. Build it with
// NewCalibrationSpec.
type CalibrationSpec struct {
	Configs      int
	IntervalsPer int
	Seed         int64
	opts         streamOpts
}

// NewCalibrationSpec validates and builds a streaming calibration
// description. The default shard size is scaled down (configs are ~1000×
// more expensive than tenants) unless WithShardSize overrides it.
func NewCalibrationSpec(configs, intervalsPer int, seed int64, options ...FleetOption) (CalibrationSpec, error) {
	if configs < 0 {
		return CalibrationSpec{}, fmt.Errorf("%w: configs = %d", ErrInvalidSpec, configs)
	}
	if intervalsPer <= 0 {
		return CalibrationSpec{}, fmt.Errorf("%w: intervalsPer = %d", ErrInvalidSpec, intervalsPer)
	}
	return CalibrationSpec{Configs: configs, IntervalsPer: intervalsPer, Seed: seed, opts: buildOpts(16, options)}, nil
}

// Shards returns the number of shards the spec splits into.
func (s CalibrationSpec) Shards() int {
	if s.Configs == 0 {
		return 0
	}
	return (s.Configs + s.opts.shardSize - 1) / s.opts.shardSize
}

func (s CalibrationSpec) fingerprint() checkpointFingerprint {
	alpha := NewWaitDigest(resource.CPU, s.opts.alpha).alpha
	return fingerprintFor("calibration", s.Configs, s.IntervalsPer, s.Seed, s.opts.shardSize, alpha)
}

// CalibrationShard is one shard's worth of wait observations, handed to the
// StreamCalibration visitor in shard-index order.
type CalibrationShard struct {
	Index       int
	FirstConfig int
	Configs     int
	// Digests holds one digest per calibration kind (CPU, DiskIO), owned
	// by the pipeline; read during the visit only.
	Digests []*WaitDigest
}

// CalibrationResult is the outcome of a streaming calibration run.
type CalibrationResult struct {
	// Digests are the merged per-kind wait digests, in calibrationKinds
	// order (CPU, DiskIO).
	Digests []*WaitDigest
	// Thresholds are CalibrateDigests(Digests).
	Thresholds estimator.Thresholds
	// Configs and Shards record the processed sizes; ResumedShards is how
	// many shards a checkpoint allowed skipping.
	Configs       int
	Shards        int
	ResumedShards int
}

// StreamCalibration runs the Section 4.1 calibration shard by shard:
// each shard simulates its configurations, folds every interval's
// (utilization, wait) observation into per-kind WaitDigests, and discards
// the engines. Each configuration draws its randomness from
// exec.SplitSeed(seed, config), so shards are independent and the merged
// result is bit-identical at any worker count, shard size, and
// checkpoint/resume split.
func StreamCalibration(ctx context.Context, spec CalibrationSpec, visit func(CalibrationShard) error) (CalibrationResult, error) {
	o := spec.opts
	if o.shardSize <= 0 {
		return CalibrationResult{}, fmt.Errorf("%w: use NewCalibrationSpec", ErrInvalidSpec)
	}
	shards := spec.Shards()
	total := newCalibrationDigests(o.alpha)

	start, resumed, err := resumeCalibration(spec, total, shards)
	if err != nil {
		return CalibrationResult{}, err
	}

	execOpts := exec.Options{Workers: o.workers, OnProgress: o.progress, ProgressEvery: 1}
	sinceCkpt := 0
	err = exec.StreamOrdered(ctx, shards-start, execOpts, 0,
		func(ctx context.Context, i int) (CalibrationShard, error) {
			return runCalibrationShard(ctx, spec, start+i)
		},
		func(_ int, cs CalibrationShard) error {
			if visit != nil {
				if err := visit(cs); err != nil {
					return err
				}
			}
			for k, d := range total {
				if err := d.Merge(cs.Digests[k]); err != nil {
					return err
				}
			}
			sinceCkpt++
			if o.checkpoint != "" && sinceCkpt >= o.checkpointEvery && cs.Index+1 < shards {
				if err := checkpointCalibration(spec, total, cs.Index+1); err != nil {
					return err
				}
				sinceCkpt = 0
			}
			return nil
		})
	if err != nil {
		return CalibrationResult{}, err
	}
	if o.checkpoint != "" {
		if err := checkpointCalibration(spec, total, shards); err != nil {
			return CalibrationResult{}, err
		}
	}
	return CalibrationResult{
		Digests:       total,
		Thresholds:    CalibrateDigests(total),
		Configs:       spec.Configs,
		Shards:        shards,
		ResumedShards: resumed,
	}, nil
}

func newCalibrationDigests(alpha float64) []*WaitDigest {
	out := make([]*WaitDigest, len(calibrationKinds))
	for i, k := range calibrationKinds {
		out[i] = NewWaitDigest(k, alpha)
	}
	return out
}

// runCalibrationShard simulates the shard's configurations: a randomized
// workload family (TPC-C, DS2 or a random CPU/IO mix), a container drawn
// from the lock-step ladder and a load from idle to past saturation, with
// per-tick jitter — a stand-in for observing thousands of production
// tenants. Every draw comes from a config-split RNG, so the shard is
// self-contained.
func runCalibrationShard(ctx context.Context, spec CalibrationSpec, shard int) (CalibrationShard, error) {
	o := spec.opts
	first := shard * o.shardSize
	count := o.shardSize
	if first+count > spec.Configs {
		count = spec.Configs - first
	}
	digests := newCalibrationDigests(o.alpha)
	cat := resource.LockStepCatalog()
	rng := rand.New(rand.NewSource(0))
	var offered []float64 // per-interval load buffer, reused across configs
	for c := first; c < first+count; c++ {
		if err := ctx.Err(); err != nil {
			return CalibrationShard{}, err
		}
		cfgSeed := exec.SplitSeed(spec.Seed, int64(c))
		rng.Seed(cfgSeed)
		var w *workload.Workload
		switch rng.Intn(3) {
		case 0:
			w = workload.TPCC()
		case 1:
			w = workload.DS2()
		default:
			w = workload.CPUIO(workload.CPUIOConfig{
				CPUWeight:       0.2 + rng.Float64()*2,
				IOWeight:        0.2 + rng.Float64()*2,
				LogWeight:       rng.Float64(),
				WorkingSetMB:    512 + rng.Float64()*3000,
				HotspotFraction: 0.9 + rng.Float64()*0.1,
			})
		}
		cont := cat.AtStep(rng.Intn(cat.LadderLen()))
		eng, err := engine.New(w, cont, cfgSeed+13, engine.Options{WarmStart: rng.Float64() < 0.7})
		if err != nil {
			return CalibrationShard{}, err
		}
		rps := rng.Float64() * 700
		if n := eng.TicksPerInterval(); cap(offered) < n {
			offered = make([]float64, n)
		}
		for i := 0; i < spec.IntervalsPer; i++ {
			// The config RNG and the engine's RNG are independent streams,
			// so drawing the interval's jitters up front and batch-ticking
			// preserves both sequences — bit-identical to per-call Tick.
			buf := offered[:eng.TicksPerInterval()]
			for t := range buf {
				jitter := 1 + 0.1*(2*rng.Float64()-1)
				buf[t] = rps * jitter
			}
			eng.TickBatch(buf)
			snap := eng.EndInterval()
			for k, kind := range calibrationKinds {
				wc := telemetry.WaitClassFor(kind)
				digests[k].Observe(snap.Utilization[kind], snap.WaitMs[wc], snap.WaitPct(wc))
			}
		}
	}
	return CalibrationShard{Index: shard, FirstConfig: first, Configs: count, Digests: digests}, nil
}

func resumeCalibration(spec CalibrationSpec, total []*WaitDigest, shards int) (start, resumed int, err error) {
	if spec.opts.checkpoint == "" {
		return 0, 0, nil
	}
	fp := spec.fingerprint()
	next, payload, ok, err := readCheckpoint(spec.opts.fs, spec.opts.checkpoint, fp)
	if err != nil || !ok {
		return 0, 0, err
	}
	if next > shards {
		return 0, 0, fmt.Errorf("fleet: checkpoint %s claims %d shards done of %d", spec.opts.checkpoint, next, shards)
	}
	if err := decodeCalibrationDigests(payload, total); err != nil {
		return 0, 0, err
	}
	for _, d := range total {
		if err := checkAccuracy(spec.opts.checkpoint, fp, d.alpha); err != nil {
			return 0, 0, err
		}
	}
	return next, next, nil
}

func checkpointCalibration(spec CalibrationSpec, total []*WaitDigest, nextShard int) error {
	payload, err := encodeCalibrationDigests(total)
	if err != nil {
		return err
	}
	return writeCheckpoint(spec.opts.fs, spec.opts.checkpoint, spec.fingerprint(), nextShard, payload)
}

func encodeCalibrationDigests(digests []*WaitDigest) ([]byte, error) {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(digests)))
	for _, d := range digests {
		b, err := d.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
		buf = append(buf, b...)
	}
	return buf, nil
}

func decodeCalibrationDigests(data []byte, into []*WaitDigest) error {
	r := aggReader{buf: data}
	n := int(r.u32())
	if r.err == nil && n != len(into) {
		return fmt.Errorf("fleet: checkpoint holds %d wait digests, want %d", n, len(into))
	}
	for i := 0; i < len(into); i++ {
		b := r.take(int(r.u32()))
		if r.err != nil {
			return fmt.Errorf("fleet: truncated calibration checkpoint: %w", r.err)
		}
		if err := into[i].UnmarshalBinary(b); err != nil {
			return err
		}
		if into[i].kind != calibrationKinds[i] {
			return fmt.Errorf("fleet: calibration checkpoint digest %d is for %v, want %v", i, into[i].kind, calibrationKinds[i])
		}
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("fleet: %d trailing bytes after calibration digests", len(r.buf)-r.off)
	}
	return nil
}
