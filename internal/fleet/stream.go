package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"daasscale/internal/exec"
	"daasscale/internal/fsio"
	"daasscale/internal/resource"
)

// This file is the streaming fleet API. A run is described by a FleetSpec
// (functional options, mirroring sim.Runner), executed by Stream, and
// observed through a visitor: tenants are generated, assigned containers,
// reduced to change events and folded into per-shard Aggregates shard by
// shard, so peak memory is bounded by the shard size regardless of fleet
// size. Shard aggregates merge in shard-index order via
// exec.StreamOrdered, which together with integer-counter aggregate state
// makes the final Analysis bit-identical at any worker count and any
// checkpoint/resume split.

// DefaultShardSize is the number of tenants generated, analyzed and
// discarded per shard when WithShardSize is not given. At the default, a
// million-tenant run holds ~1k demand series at a time per in-flight shard.
const DefaultShardSize = 1024

// ErrInvalidSpec reports a FleetSpec or CalibrationSpec that cannot be run.
var ErrInvalidSpec = errors.New("fleet: invalid spec")

// streamOpts is the shared option bag for Stream and StreamCalibration.
// alpha (0 = stats.DefaultSketchAccuracy), checkpointEvery and fs have no
// option: only the package's tests set them.
type streamOpts struct {
	shardSize       int
	workers         int
	alpha           float64
	progress        func(exec.Progress)
	catalog         *resource.Catalog
	checkpoint      string
	checkpointEvery int
	fs              fsio.FS
}

// FleetOption configures a FleetSpec or CalibrationSpec.
type FleetOption func(*streamOpts)

// WithShardSize sets how many tenants (or wait-calibration configs) each
// shard processes before its buffers are recycled; values ≤ 0 keep
// DefaultShardSize. Peak memory scales with shardSize × in-flight shards,
// never with the fleet size.
func WithShardSize(n int) FleetOption {
	return func(o *streamOpts) {
		if n > 0 {
			o.shardSize = n
		}
	}
}

// WithParallelism sets the worker pool size; values ≤ 0 select
// runtime.GOMAXPROCS(0). The result is bit-identical at any setting.
func WithParallelism(workers int) FleetOption {
	return func(o *streamOpts) { o.workers = workers }
}

// WithProgress installs a throughput-metrics hook, forwarded to the
// underlying exec pool (tasks are shards, not tenants).
func WithProgress(fn func(exec.Progress)) FleetOption {
	return func(o *streamOpts) { o.progress = fn }
}

// WithCatalog overrides the container catalog used for assignment
// (nil keeps resource.DefaultCatalog).
func WithCatalog(cat *resource.Catalog) FleetOption {
	return func(o *streamOpts) { o.catalog = cat }
}

// WithCheckpoint enables checkpoint/resume: completed-shard state is
// periodically serialized to path (atomic replace), and a run finding a
// matching checkpoint there skips the finished shards. Resumed runs are
// bit-identical to uninterrupted ones.
func WithCheckpoint(path string) FleetOption {
	return func(o *streamOpts) { o.checkpoint = path }
}

// buildOpts applies options over the defaults: shardSize tenants or configs
// per shard, sketches at stats.DefaultSketchAccuracy, a checkpoint every 8
// shards on the real disk.
func buildOpts(shardSize int, options []FleetOption) streamOpts {
	o := streamOpts{shardSize: shardSize}
	for _, opt := range options {
		opt(&o)
	}
	if o.checkpointEvery <= 0 {
		o.checkpointEvery = 8
	}
	if o.fs == nil {
		o.fs = fsio.OS
	}
	return o
}

// FleetSpec describes one streaming fleet study: how many tenants over how
// many days, generated from which seed. Build it with NewFleetSpec.
type FleetSpec struct {
	Tenants int
	Days    int
	Seed    int64
	opts    streamOpts
}

// NewFleetSpec validates and builds a streaming run description.
func NewFleetSpec(tenants, days int, seed int64, options ...FleetOption) (FleetSpec, error) {
	if tenants < 0 {
		return FleetSpec{}, fmt.Errorf("%w: tenants = %d", ErrInvalidSpec, tenants)
	}
	if days <= 0 {
		return FleetSpec{}, fmt.Errorf("%w: days = %d", ErrInvalidSpec, days)
	}
	return FleetSpec{Tenants: tenants, Days: days, Seed: seed, opts: buildOpts(DefaultShardSize, options)}, nil
}

// Shards returns the number of shards the spec splits into.
func (s FleetSpec) Shards() int {
	if s.Tenants == 0 {
		return 0
	}
	return (s.Tenants + s.opts.shardSize - 1) / s.opts.shardSize
}

func (s FleetSpec) fingerprint() checkpointFingerprint {
	alpha := NewAggregate(s.opts.alpha).alpha
	return fingerprintFor("fleet", s.Tenants, s.Days, s.Seed, s.opts.shardSize, alpha)
}

// ShardResult is one shard's completed slice of the fleet, handed to the
// Stream visitor in shard-index order. Agg holds only mergeable statistics;
// the tenants themselves are already gone.
type ShardResult struct {
	// Index is the shard number within the full run, 0-based and strictly
	// increasing across visits. A resumed run starts at the first
	// unfinished shard.
	Index int
	// FirstTenant is the fleet-wide ID of the shard's first tenant.
	FirstTenant int
	// Tenants is the number of tenants in this shard (the last shard may
	// be short).
	Tenants int
	// Agg is the shard's aggregate. It is owned by the pipeline: read it
	// during the visit, but don't retain it after returning.
	Agg *Aggregate
}

// StreamResult is the outcome of a streaming fleet run.
type StreamResult struct {
	// Analysis is the Section 2.2 study. Every field comes from exact
	// counters except IEICDF, which is at sketch resolution.
	Analysis Analysis
	// Aggregate is the merged fleet-wide aggregate, for callers that want
	// quantiles beyond what Analysis carries.
	Aggregate *Aggregate
	// Tenants and Shards record the processed sizes; ResumedShards is how
	// many shards were skipped thanks to a checkpoint.
	Tenants       int
	Shards        int
	ResumedShards int
}

// Stream runs the fleet study shard by shard. Each shard generates its
// tenants from per-tenant SplitSeed RNG streams, so a tenant's series
// depends only on (seed, tenant ID). It folds them into a shard Aggregate,
// reusing one demand/assignment/event buffer set across the whole shard,
// and discards them. Shards execute in parallel but merge — and visit,
// when visit is non-nil — in shard-index order, so the merged result is
// deterministic at any worker count. visit may return an error to abort
// the run.
func Stream(ctx context.Context, spec FleetSpec, visit func(ShardResult) error) (StreamResult, error) {
	o := spec.opts
	if o.shardSize <= 0 {
		return StreamResult{}, fmt.Errorf("%w: use NewFleetSpec", ErrInvalidSpec)
	}
	cat := o.catalog
	if cat == nil {
		cat = resource.DefaultCatalog()
	}
	shards := spec.Shards()
	total := NewAggregate(o.alpha)

	start, resumed, err := resumeAggregate(spec, total, shards)
	if err != nil {
		return StreamResult{}, err
	}

	execOpts := exec.Options{Workers: o.workers, OnProgress: o.progress, ProgressEvery: 1}
	sinceCkpt := 0
	err = exec.StreamOrdered(ctx, shards-start, execOpts, 0,
		func(ctx context.Context, i int) (ShardResult, error) {
			return runShard(ctx, spec, cat, start+i)
		},
		func(_ int, sr ShardResult) error {
			if visit != nil {
				if err := visit(sr); err != nil {
					return err
				}
			}
			if err := total.Merge(sr.Agg); err != nil {
				return err
			}
			sinceCkpt++
			if o.checkpoint != "" && sinceCkpt >= o.checkpointEvery && sr.Index+1 < shards {
				if err := checkpointAggregate(spec, total, sr.Index+1); err != nil {
					return err
				}
				sinceCkpt = 0
			}
			return nil
		})
	if err != nil {
		return StreamResult{}, err
	}
	if o.checkpoint != "" {
		if err := checkpointAggregate(spec, total, shards); err != nil {
			return StreamResult{}, err
		}
	}
	return StreamResult{
		Analysis:      total.Analysis(),
		Aggregate:     total,
		Tenants:       spec.Tenants,
		Shards:        shards,
		ResumedShards: resumed,
	}, nil
}

// runShard generates and analyzes one shard's tenants with shard-local
// scratch buffers. One rand.Rand is reseeded per tenant — bit-identical to
// a fresh rand.New(rand.NewSource(...)) — so the warm path allocates no
// per-tenant RNG state.
func runShard(ctx context.Context, spec FleetSpec, cat *resource.Catalog, shard int) (ShardResult, error) {
	o := spec.opts
	first := shard * o.shardSize
	count := o.shardSize
	if first+count > spec.Tenants {
		count = spec.Tenants - first
	}
	agg := NewAggregate(o.alpha)
	rng := rand.New(rand.NewSource(0))
	demand := make([]resource.Vector, spec.Days*IntervalsPerDay)
	var containers []resource.Container
	var events []ChangeEvent
	for i := 0; i < count; i++ {
		if err := ctx.Err(); err != nil {
			return ShardResult{}, err
		}
		id := first + i
		rng.Seed(exec.SplitSeed(spec.Seed, int64(id)))
		t := generateTenantInto(id, spec.Days, rng, demand)
		containers = assignContainersInto(&t, cat, containers)
		events = changeEventsInto(containers, events)
		agg.ObserveTenant(&t, events)
	}
	return ShardResult{Index: shard, FirstTenant: first, Tenants: count, Agg: agg}, nil
}

func resumeAggregate(spec FleetSpec, total *Aggregate, shards int) (start, resumed int, err error) {
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
	if err := total.UnmarshalBinary(payload); err != nil {
		return 0, 0, err
	}
	if err := checkAccuracy(spec.opts.checkpoint, fp, total.alpha); err != nil {
		return 0, 0, err
	}
	return next, next, nil
}

func checkpointAggregate(spec FleetSpec, total *Aggregate, nextShard int) error {
	payload, err := total.MarshalBinary()
	if err != nil {
		return err
	}
	return writeCheckpoint(spec.opts.fs, spec.opts.checkpoint, spec.fingerprint(), nextShard, payload)
}
