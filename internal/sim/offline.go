package sim

import (
	"context"
	"fmt"

	"daasscale/internal/engine"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/stats"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

// OfflineBaselines holds everything the offline techniques of Section 7.2.1
// derive from observing a Max-container run of the exact workload:
//
//   - Peak: the smallest container meeting the 95th percentile of the
//     per-interval resource usage;
//   - Avg: the smallest container meeting the average usage;
//   - Schedule: the per-interval sequence of smallest-fitting containers the
//     Trace oracle replays ("hugging" the demand curve).
type OfflineBaselines struct {
	// MaxResult is the gold-standard run the baselines were derived from.
	MaxResult Result
	// Peak and Avg are the static provisioning choices.
	Peak resource.Container
	Avg  resource.Container
	// Schedule is the Trace oracle's container per billing interval.
	Schedule []resource.Container
}

// deriveOffline runs the workload once in the largest container (Max) and
// derives the offline baselines from the observed resource usage, exactly
// as the paper constructs Static(Peak), Static(Avg) and Trace.
//
// Memory requirements per interval are taken as the cached bytes clamped to
// a small margin above the working set: on Max the cache grows far past the
// hot set, but a container only *needs* to hold the working set.
func deriveOffline(ctx context.Context, cat *resource.Catalog, w *workload.Workload, tr *trace.Trace, seed int64, opts engine.Options) (OfflineBaselines, error) {
	if err := requireCatalog(cat); err != nil {
		return OfflineBaselines{}, err
	}
	maxRes, err := runSpecValidated(ctx, Spec{
		Workload:   w,
		Trace:      tr,
		Policy:     policy.NewMax(cat),
		Seed:       seed,
		EngineOpts: opts,
	})
	if err != nil {
		return OfflineBaselines{}, fmt.Errorf("sim: max run: %w", err)
	}
	maxAlloc := cat.Largest().Alloc
	memCap := w.WorkingSetMB * 1.15

	n := len(maxRes.Series)
	demands := make([]resource.Vector, n)
	perKind := [resource.NumKinds][]float64{}
	for _, k := range resource.Kinds {
		perKind[k] = make([]float64, n)
	}
	for i, pt := range maxRes.Series {
		var d resource.Vector
		for _, k := range resource.Kinds {
			d[k] = pt.UtilizationPeak[k] * maxAlloc[k]
		}
		if d[resource.Memory] > memCap {
			d[resource.Memory] = memCap
		}
		demands[i] = d
		for _, k := range resource.Kinds {
			perKind[k][i] = d[k]
		}
	}

	var peakDemand, avgDemand resource.Vector
	for _, k := range resource.Kinds {
		// The per-kind columns are private scratch; Mean is order-blind, so
		// the percentile can select in place.
		avgDemand[k] = stats.Mean(perKind[k])
		peakDemand[k] = stats.QuantileSelect(perKind[k], 0.95)
	}
	peak, _ := cat.SmallestFitting(peakDemand)
	avg, _ := cat.SmallestFitting(avgDemand)

	// The oracle smooths over a 3-interval window (component-wise max of
	// the neighbouring demands): single-interval dips would otherwise make
	// the schedule flap between adjacent sizes, paying a queue transient at
	// every downward flap.
	schedule := make([]resource.Container, n)
	for i := range demands {
		d := demands[i]
		if i > 0 {
			d = d.Max(demands[i-1])
		}
		if i+1 < n {
			d = d.Max(demands[i+1])
		}
		schedule[i], _ = cat.SmallestFitting(d)
	}
	return OfflineBaselines{MaxResult: maxRes, Peak: peak, Avg: avg, Schedule: schedule}, nil
}
