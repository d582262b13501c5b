package fleet

import (
	"math/rand"

	"daasscale/internal/engine"
	"daasscale/internal/estimator"
	"daasscale/internal/exec"
	"daasscale/internal/resource"
	"daasscale/internal/stats"
	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

// This file holds the exact, slice-based oracles the streaming pipeline is
// tested against: the whole fleet in memory and the Section 2.2 study over
// it at sample resolution, and the wait-sample pipeline behind Figures 4
// and 6 and the Section 4.1 calibration, which keeps every sample and
// sorts to take percentiles.

// generateFleet synthesizes n tenants one after another, each from its
// own SplitSeed stream: the tenants Stream generates shard by shard.
func generateFleet(n, days int, seed int64) []Tenant {
	out := make([]Tenant, n)
	for i := range out {
		rng := rand.New(rand.NewSource(exec.SplitSeed(seed, int64(i))))
		out[i] = generateTenantInto(i, days, rng, nil)
	}
	return out
}

// tenantEvents assigns t's demand to containers of cat and returns the
// resulting change events.
func tenantEvents(t *Tenant, cat *resource.Catalog) []ChangeEvent {
	return changeEventsInto(assignContainersInto(t, cat, nil), nil)
}

// analyze runs the Section 2.2 study over a materialized fleet, buffering
// every inter-event interval for an exact CDF.
func analyze(fleet []Tenant, cat *resource.Catalog) Analysis {
	a := Analysis{Tenants: len(fleet)}
	var ieiMinutes, perTenantChangesPerDay []float64
	var oneStep, atMostTwo int
	for i := range fleet {
		t := &fleet[i]
		events := tenantEvents(t, cat)
		a.TotalChanges += len(events)
		for j := range events {
			if j > 0 {
				ieiMinutes = append(ieiMinutes, float64(events[j].Interval-events[j-1].Interval)*5)
			}
			if events[j].StepDelta() == 1 {
				oneStep++
			}
			if events[j].StepDelta() <= 2 {
				atMostTwo++
			}
		}
		if days := t.Days(); days > 0 {
			perTenantChangesPerDay = append(perTenantChangesPerDay, float64(len(events))/float64(days))
		}
	}
	a.IEICDF = stats.CDF(ieiMinutes)
	a.IEIWithin60Min = stats.CDFAt(a.IEICDF, 60)
	a.ChangesPerDayHist = stats.Histogram(perTenantChangesPerDay, changesPerDayEdges)
	var ge1, ge6, gt24 int
	for _, c := range perTenantChangesPerDay {
		if c >= 1 {
			ge1++
		}
		if c >= 6 {
			ge6++
		}
		if c > 24 {
			gt24++
		}
	}
	if n := len(perTenantChangesPerDay); n > 0 {
		a.FracAtLeastOnePerDay = float64(ge1) / float64(n)
		a.FracAtLeastSixPerDay = float64(ge6) / float64(n)
		a.FracMoreThan24PerDay = float64(gt24) / float64(n)
	}
	if a.TotalChanges > 0 {
		a.OneStepShare = float64(oneStep) / float64(a.TotalChanges)
		a.AtMostTwoStepsShare = float64(atMostTwo) / float64(a.TotalChanges)
	}
	return a
}

// waitSample is one (utilization, wait) observation for one resource over
// one billing interval.
type waitSample struct {
	kind        resource.Kind
	utilization float64
	waitMs      float64
	waitPct     float64
}

// collectWaitSamples runs short engine stints across randomized
// (workload, container, load) configurations with one sequential RNG and
// returns every interval's CPU and disk-I/O wait sample. Its sample stream
// differs from StreamCalibration's, whose configurations draw from
// config-split RNGs.
func collectWaitSamples(configs, intervalsPer int, seed int64) ([]waitSample, error) {
	rng := rand.New(rand.NewSource(seed))
	cat := resource.LockStepCatalog()
	var out []waitSample
	for c := 0; c < configs; c++ {
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
		eng, err := engine.New(w, cont, seed+int64(c)*13, engine.Options{WarmStart: rng.Float64() < 0.7})
		if err != nil {
			return nil, err
		}
		// Load spans idle to past saturation of the chosen container.
		rps := rng.Float64() * 700
		for i := 0; i < intervalsPer; i++ {
			for t := 0; t < eng.TicksPerInterval(); t++ {
				jitter := 1 + 0.1*(2*rng.Float64()-1)
				eng.Tick(rps * jitter)
			}
			snap := eng.EndInterval()
			for _, k := range calibrationKinds {
				wc := telemetry.WaitClassFor(k)
				out = append(out, waitSample{
					kind:        k,
					utilization: snap.Utilization[k],
					waitMs:      snap.WaitMs[wc],
					waitPct:     snap.WaitPct(wc),
				})
			}
		}
	}
	return out, nil
}

// waitDistributions holds one resource's wait magnitudes at low (<30%)
// and high (>70%) utilization: Figure 6's two distributions.
type waitDistributions struct {
	lowMs, highMs []float64
}

// splitByUtilization builds the Figure 6 distributions for resource k.
func splitByUtilization(samples []waitSample, k resource.Kind) waitDistributions {
	var d waitDistributions
	for _, s := range samples {
		if s.kind != k {
			continue
		}
		switch {
		case s.utilization < 0.30:
			d.lowMs = append(d.lowMs, s.waitMs)
		case s.utilization > 0.70:
			d.highMs = append(d.highMs, s.waitMs)
		}
	}
	return d
}

// separation is the high distribution's 75th percentile over the low
// distribution's 90th, the denominator floored at one second per interval.
func (d waitDistributions) separation() float64 {
	lo := stats.Quantile(d.lowMs, 0.90)
	hi := stats.Quantile(d.highMs, 0.75)
	if lo < 1000 {
		lo = 1000
	}
	return hi / lo
}

// correlation is Spearman's ρ between utilization and wait magnitude over
// every sample of resource k.
func correlation(samples []waitSample, k resource.Kind) (float64, error) {
	var util, wait []float64
	for _, s := range samples {
		if s.kind == k {
			util = append(util, s.utilization)
			wait = append(wait, s.waitMs)
		}
	}
	return stats.Spearman(util, wait)
}

// calibrate derives the Section 4.1 thresholds from exact percentiles: LOW
// from the low-utilization distribution's 90th percentile, HIGH from the
// high-utilization distribution's 10th, with the clamps CalibrateDigests
// applies. Resources with fewer than 30 samples in either band keep the
// defaults.
func calibrate(samples []waitSample) estimator.Thresholds {
	th := estimator.DefaultThresholds()
	for _, k := range calibrationKinds {
		d := splitByUtilization(samples, k)
		if len(d.lowMs) < 30 || len(d.highMs) < 30 {
			continue
		}
		low := stats.Clamp(stats.QuantileSelect(d.lowMs, 0.90), 2_000, 50_000)
		high := stats.Clamp(stats.QuantileSelect(d.highMs, 0.10), 2*low, 200_000)
		th.WaitLowMs[k] = low
		th.WaitHighMs[k] = high
	}
	return th
}
