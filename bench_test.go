// Package daasscale_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md's experiment
// index). Each benchmark runs the corresponding experiment, prints the same
// rows/series the paper reports (once), and exposes the headline numbers as
// benchmark metrics so regressions in the reproduced shapes are visible in
// benchmark diffs.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package daasscale_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"daasscale/internal/budget"
	"daasscale/internal/core"
	"daasscale/internal/engine"
	"daasscale/internal/estimator"
	"daasscale/internal/fleet"
	"daasscale/internal/learned"
	"daasscale/internal/policy"
	"daasscale/internal/report"
	"daasscale/internal/resource"
	"daasscale/internal/sim"
	"daasscale/internal/stats"
	"daasscale/internal/telemetry"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

const benchSeed = 42

var (
	printMu sync.Mutex
	printed = map[string]bool{}
)

// printOnce renders a table exactly once per process, no matter how many
// times the benchmark harness re-enters the function.
func printOnce(key string, f func()) {
	printMu.Lock()
	defer printMu.Unlock()
	if printed[key] {
		return
	}
	printed[key] = true
	f()
}

// benchRecords collects the headline numbers of the fleet-scale
// benchmarks; TestMain writes them to the file named by the BENCH_JSON
// environment variable (the `make bench-fleet` target sets BENCH_fleet.json).
var (
	benchRecMu   sync.Mutex
	benchRecords = map[string]map[string]float64{}
)

func recordBench(name string, metrics map[string]float64) {
	benchRecMu.Lock()
	defer benchRecMu.Unlock()
	benchRecords[name] = metrics
}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_JSON"); path != "" && code == 0 {
		if err := writeBenchJSON(path); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			code = 1
		}
	}
	os.Exit(code)
}

func writeBenchJSON(path string) error {
	benchRecMu.Lock()
	defer benchRecMu.Unlock()
	if len(benchRecords) == 0 {
		return nil // no recording benchmark ran; leave any existing file alone
	}
	out := struct {
		Note       string                        `json:"note"`
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	}{
		Note:       "headline benchmark numbers; regenerate with `make bench-fleet`",
		Benchmarks: benchRecords,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// comparisonCache avoids recomputing identical six-policy comparisons when
// the harness calibrates b.N.
var (
	compMu    sync.Mutex
	compCache = map[string]sim.Comparison{}
)

func cachedComparison(b *testing.B, key string, cs sim.ComparisonSpec) sim.Comparison {
	b.Helper()
	compMu.Lock()
	defer compMu.Unlock()
	if c, ok := compCache[key]; ok {
		return c
	}
	c, err := sim.NewRunner().RunComparison(context.Background(), cs)
	if err != nil {
		b.Fatal(err)
	}
	compCache[key] = c
	return c
}

// reportComparison prints the paper-style table and reports the headline
// metrics.
func reportComparison(b *testing.B, title string, comp sim.Comparison) {
	b.Helper()
	printOnce(title, func() {
		fmt.Println()
		report.ComparisonTable(os.Stdout, title, comp)
	})
	auto := comp.MustByPolicy("Auto")
	util := comp.MustByPolicy("Util")
	peak := comp.MustByPolicy("Peak")
	b.ReportMetric(auto.AvgCostPerInterval, "auto-cost/interval")
	b.ReportMetric(util.AvgCostPerInterval/auto.AvgCostPerInterval, "util/auto-x")
	b.ReportMetric(peak.AvgCostPerInterval/auto.AvgCostPerInterval, "peak/auto-x")
	b.ReportMetric(auto.P95Ms/comp.GoalMs, "auto-p95/goal")
}

// ---------------------------------------------------------------------------
// Figure 2: resource demand analysis in production (fleet change events).
// ---------------------------------------------------------------------------

// benchFleet runs the Section 2.2 study over the 500-tenant, one-week
// lock-step fleet the Figure 2 and Section 4 benchmarks share.
func benchFleet(b *testing.B) fleet.Analysis {
	b.Helper()
	spec, err := fleet.NewFleetSpec(500, 7, benchSeed, fleet.WithCatalog(resource.LockStepCatalog()))
	if err != nil {
		b.Fatal(err)
	}
	res, err := fleet.Stream(context.Background(), spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res.Analysis
}

// benchCalibration runs the Section 4.1 wait sampling the Figure 4 and
// Figure 6 benchmarks share: 150 configurations of 4 intervals each.
func benchCalibration(b *testing.B) fleet.CalibrationResult {
	b.Helper()
	spec, err := fleet.NewCalibrationSpec(150, 4, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	res, err := fleet.StreamCalibration(context.Background(), spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkFigure2a_IEICDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchFleet(b)
		printOnce("fig2a", func() {
			fmt.Println()
			report.CDFTable(os.Stdout, "Figure 2(a): CDF of inter-event interval (minutes)",
				a.IEICDF, []float64{5, 15, 30, 60, 120, 360, 720, 1440})
		})
		b.ReportMetric(a.IEIWithin60Min*100, "iei<=60min-%")
	}
}

func BenchmarkFigure2b_ChangeFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchFleet(b)
		printOnce("fig2b", func() {
			fmt.Println()
			report.FleetSummary(os.Stdout, a)
		})
		b.ReportMetric(a.FracAtLeastOnePerDay*100, ">=1change/day-%")
		b.ReportMetric(a.FracAtLeastSixPerDay*100, ">=6changes/day-%")
		b.ReportMetric(a.FracMoreThan24PerDay*100, ">24changes/day-%")
	}
}

// ---------------------------------------------------------------------------
// Figure 4: wait magnitude vs utilization (weak positive correlation).
// ---------------------------------------------------------------------------

func BenchmarkFigure4_WaitVsUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cal := benchCalibration(b)
		cpuRho, err := cal.Digests[0].Correlation()
		if err != nil {
			b.Fatal(err)
		}
		ioRho, err := cal.Digests[1].Correlation()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig4", func() {
			fmt.Printf("\nFigure 4: wait–utilization Spearman ρ — cpu %.2f, diskio %.2f (increasing but weak)\n", cpuRho, ioRho)
		})
		b.ReportMetric(cpuRho, "cpu-rho")
		b.ReportMetric(ioRho, "diskio-rho")
	}
}

// ---------------------------------------------------------------------------
// Figure 6: wait distributions at low vs high utilization + calibration.
// ---------------------------------------------------------------------------

func BenchmarkFigure6_WaitDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cal := benchCalibration(b)
		cpu, io, th := cal.Digests[0], cal.Digests[1], cal.Thresholds
		printOnce("fig6", func() {
			fmt.Println()
			report.WaitDigestTable(os.Stdout, cpu)
			report.WaitDigestTable(os.Stdout, io)
			fmt.Printf("calibrated: cpu LOW<%.0f HIGH>=%.0f, diskio LOW<%.0f HIGH>=%.0f ms/interval\n",
				th.WaitLowMs[resource.CPU], th.WaitHighMs[resource.CPU],
				th.WaitLowMs[resource.DiskIO], th.WaitHighMs[resource.DiskIO])
		})
		b.ReportMetric(cpu.Separation(), "cpu-separation-x")
		b.ReportMetric(io.Separation(), "diskio-separation-x")
	}
}

// ---------------------------------------------------------------------------
// Figure 8: the four load traces.
// ---------------------------------------------------------------------------

func BenchmarkFigure8_Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traces := trace.Standard(benchSeed)
		printOnce("fig8", func() {
			fmt.Println()
			for _, tr := range traces {
				report.ASCIIChart(os.Stdout,
					fmt.Sprintf("Figure 8 %s (mean %.0f rps, peak %.0f rps)", tr.Name, tr.Mean(), tr.Peak()),
					tr.RPS, 72, 8)
			}
		})
		var total int
		for _, tr := range traces {
			total += tr.Len()
		}
		b.ReportMetric(float64(total), "trace-minutes")
	}
}

// ---------------------------------------------------------------------------
// Figures 9–12: the end-to-end policy comparisons.
// ---------------------------------------------------------------------------

func BenchmarkFigure9a_CPUIO_Trace2_TightGoal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp := cachedComparison(b, "9a", sim.ComparisonSpec{
			Workload:   workload.CPUIO(workload.DefaultCPUIOConfig()),
			Trace:      trace.Trace2(900, benchSeed),
			GoalFactor: 1.25,
			Seed:       benchSeed,
		})
		reportComparison(b, "Figure 9(a): CPUIO × Trace 2, goal 1.25×Max", comp)
	}
}

func BenchmarkFigure9b_CPUIO_Trace2_LooseGoal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp := cachedComparison(b, "9b", sim.ComparisonSpec{
			Workload:   workload.CPUIO(workload.DefaultCPUIOConfig()),
			Trace:      trace.Trace2(900, benchSeed),
			GoalFactor: 5,
			Seed:       benchSeed,
		})
		reportComparison(b, "Figure 9(b): CPUIO × Trace 2, goal 5×Max", comp)
	}
}

func BenchmarkFigure10_TPCC_Trace4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp := cachedComparison(b, "10", sim.ComparisonSpec{
			Workload:   workload.TPCC(),
			Trace:      trace.Trace4(1440, benchSeed),
			GoalFactor: 1.25,
			Seed:       benchSeed,
		})
		reportComparison(b, "Figure 10: TPC-C × Trace 4, goal 1.25×Max", comp)
	}
}

func BenchmarkFigure11_CPUIO_Trace3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp := cachedComparison(b, "11", sim.ComparisonSpec{
			Workload:   workload.CPUIO(workload.DefaultCPUIOConfig()),
			Trace:      trace.Trace3(700, benchSeed),
			GoalFactor: 5,
			Seed:       benchSeed,
		})
		reportComparison(b, "Figure 11: CPUIO × Trace 3, goal 5×Max", comp)
	}
}

func BenchmarkFigure12_DS2_Trace1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp := cachedComparison(b, "12", sim.ComparisonSpec{
			Workload:   workload.DS2(),
			Trace:      trace.Trace1(1440, benchSeed),
			GoalFactor: 1.25,
			Seed:       benchSeed,
		})
		reportComparison(b, "Figure 12: DS2 × Trace 1, goal 1.25×Max", comp)
	}
}

// ---------------------------------------------------------------------------
// Figure 13: the Util-vs-Auto drill-down on the lock-bound workload.
// ---------------------------------------------------------------------------

func BenchmarkFigure13_Drilldown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp := cachedComparison(b, "10", sim.ComparisonSpec{
			Workload:   workload.TPCC(),
			Trace:      trace.Trace4(1440, benchSeed),
			GoalFactor: 1.25,
			Seed:       benchSeed,
		})
		util := comp.MustByPolicy("Util")
		auto := comp.MustByPolicy("Auto")
		printOnce("fig13", func() {
			fmt.Println()
			for _, r := range []sim.Result{util, auto} {
				frac := make([]float64, len(r.Series))
				for j, pt := range r.Series {
					frac[j] = pt.ContainerCPUFrac * 100
				}
				report.ASCIIChart(os.Stdout,
					fmt.Sprintf("Figure 13: %s container max CPU as %% of server", r.Policy), frac, 72, 7)
				report.WaitMixTable(os.Stdout, r)
			}
		})
		// Headline metrics: Util's peak container vs Auto's, and the lock
		// share of waits.
		peakFrac := func(r sim.Result) float64 {
			m := 0.0
			for _, pt := range r.Series {
				if pt.ContainerCPUFrac > m {
					m = pt.ContainerCPUFrac
				}
			}
			return m * 100
		}
		b.ReportMetric(peakFrac(util), "util-peak-cpu-%")
		b.ReportMetric(peakFrac(auto), "auto-peak-cpu-%")
		lock := make([]float64, len(auto.Series))
		for j, pt := range auto.Series {
			lock[j] = pt.WaitPct[telemetry.WaitLock]
		}
		b.ReportMetric(stats.Quantile(lock, 0.9)*100, "lock-wait-share-p90-%")
	}
}

// ---------------------------------------------------------------------------
// Figure 14: ballooning and low memory demand.
// ---------------------------------------------------------------------------

func BenchmarkFigure14_Ballooning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.NewRunner().RunBallooning(context.Background(), sim.BallooningSpec{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig14", func() {
			fmt.Println()
			for _, arm := range []sim.BallooningArm{res.Without, res.With} {
				mem := make([]float64, len(arm.Series))
				lat := make([]float64, len(arm.Series))
				for j, pt := range arm.Series {
					mem[j] = pt.MemoryUsedMB
					lat[j] = pt.AvgMs
				}
				report.ASCIIChart(os.Stdout, "Figure 14: "+arm.Name+" memory used (MB)", mem, 72, 6)
				report.ASCIIChart(os.Stdout, "Figure 14: "+arm.Name+" average latency (ms)", lat, 72, 6)
			}
		})
		b.ReportMetric(res.Without.PeakAvgMs()/res.Without.BaselineAvgMs(), "naive-latency-damage-x")
		b.ReportMetric(res.With.PeakAvgMs()/res.With.BaselineAvgMs(), "probe-latency-damage-x")
		b.ReportMetric(res.With.MinMemoryMB(), "probe-min-memory-mb")
	}
}

// ---------------------------------------------------------------------------
// Section 4: resize step-size statistics.
// ---------------------------------------------------------------------------

func BenchmarkSection4_StepSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchFleet(b)
		printOnce("sec4", func() {
			fmt.Printf("\nSection 4: 1-step resizes %.1f%% (paper ≈90%%), ≤2-step %.1f%% (paper ≈98%%)\n",
				a.OneStepShare*100, a.AtMostTwoStepsShare*100)
		})
		b.ReportMetric(a.OneStepShare*100, "1-step-%")
		b.ReportMetric(a.AtMostTwoStepsShare*100, "<=2-step-%")
	}
}

// ---------------------------------------------------------------------------
// Ablation A1: Theil–Sen vs least squares under outlier injection.
// ---------------------------------------------------------------------------

func BenchmarkAblationTrendRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(benchSeed))
		const trials = 300
		correctTS, correctLS := 0, 0
		for t := 0; t < trials; t++ {
			// A genuine upward trend with noise and one massive outlier.
			n := 12
			xs := make([]float64, n)
			ys := make([]float64, n)
			slope := 1 + rng.Float64()*4
			for j := 0; j < n; j++ {
				xs[j] = float64(j)
				ys[j] = slope*float64(j) + rng.NormFloat64()*2
			}
			ys[rng.Intn(n)] += -1e5 // telemetry spike
			if tr, err := stats.TheilSen(xs, ys, stats.DefaultTrendAlpha); err == nil && tr.Significant && tr.Slope > 0 {
				correctTS++
			}
			if tr, err := stats.LeastSquares(xs, ys, 0.5); err == nil && tr.Significant && tr.Slope > 0 {
				correctLS++
			}
		}
		tsAcc := float64(correctTS) / trials * 100
		lsAcc := float64(correctLS) / trials * 100
		printOnce("a1", func() {
			fmt.Printf("\nAblation A1: trend detection with one outlier per window — Theil–Sen %.0f%%, least squares %.0f%%\n", tsAcc, lsAcc)
		})
		b.ReportMetric(tsAcc, "theilsen-correct-%")
		b.ReportMetric(lsAcc, "leastsquares-correct-%")
	}
}

// ---------------------------------------------------------------------------
// Ablation A2: median vs mean aggregation under telemetry noise.
// ---------------------------------------------------------------------------

func BenchmarkAblationRobustAggregates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(benchSeed))
		const trials = 300
		var medianErr, meanErr float64
		for t := 0; t < trials; t++ {
			truth := 40 + rng.Float64()*20
			xs := make([]float64, 10)
			for j := range xs {
				xs[j] = truth * (1 + 0.1*rng.NormFloat64())
			}
			xs[rng.Intn(len(xs))] *= 1000 // checkpoint spike
			medianErr += absFrac(stats.Median(xs), truth)
			meanErr += absFrac(stats.Mean(xs), truth)
		}
		medianErr = medianErr / trials * 100
		meanErr = meanErr / trials * 100
		printOnce("a2", func() {
			fmt.Printf("\nAblation A2: aggregate error with one spike per window — median %.1f%%, mean %.0f%%\n", medianErr, meanErr)
		})
		b.ReportMetric(medianErr, "median-err-%")
		b.ReportMetric(meanErr, "mean-err-%")
	}
}

func absFrac(got, want float64) float64 {
	d := (got - want) / want
	if d < 0 {
		d = -d
	}
	return d
}

// ---------------------------------------------------------------------------
// Ablation A3: multi-signal rules vs single-signal demand estimation.
// ---------------------------------------------------------------------------

func BenchmarkAblationSignalCombination(b *testing.B) {
	type scenario struct {
		name     string
		build    func(rng *rand.Rand) telemetry.Signals
		wantUp   bool // should the estimator add CPU resources?
		wantDown bool
	}
	mk := func(util, waits, pct float64) telemetry.Signals {
		var s telemetry.Signals
		s.Resources[resource.CPU].Utilization = util
		s.Resources[resource.CPU].WaitMs = waits
		s.Resources[resource.CPU].WaitPct = pct
		s.Resources[resource.CPU].PrevWaitMs = waits
		s.Resources[resource.CPU].PrevUtilization = util
		s.Current.Utilization[resource.CPU] = util
		s.Current.WaitMs[telemetry.WaitCPU] = waits
		if pct > 0 && pct < 1 {
			s.Current.WaitMs[telemetry.WaitLock] = waits/pct - waits
		}
		s.Latency.P95Ms = 100
		return s
	}
	scenarios := []scenario{
		{"saturated", func(r *rand.Rand) telemetry.Signals {
			return mk(0.85+0.1*r.Float64(), 300_000+r.Float64()*200_000, 0.7)
		}, true, false},
		{"busy-but-fine", func(r *rand.Rand) telemetry.Signals {
			return mk(0.75+0.15*r.Float64(), r.Float64()*4_000, 0.05)
		}, false, false},
		{"lock-bound", func(r *rand.Rand) telemetry.Signals {
			return mk(0.15+0.1*r.Float64(), 150_000+r.Float64()*100_000, 0.05)
		}, false, false},
		{"idle", func(r *rand.Rand) telemetry.Signals {
			return mk(0.05*r.Float64(), r.Float64()*1_000, 0.02)
		}, false, true},
	}
	est, err := estimator.New(estimator.DefaultThresholds(), estimator.SensitivityMedium)
	if err != nil {
		b.Fatal(err)
	}
	th := estimator.DefaultThresholds()
	utilOnly := func(s telemetry.Signals) int {
		u := s.Resources[resource.CPU].Utilization
		switch {
		case u >= th.UtilHigh:
			return 1
		case u < th.UtilLow:
			return -1
		default:
			return 0
		}
	}
	waitsOnly := func(s telemetry.Signals) int {
		w := s.Resources[resource.CPU].WaitMs
		switch {
		case w >= th.WaitHighMs[resource.CPU]:
			return 1
		case w < th.WaitLowMs[resource.CPU]:
			return -1
		default:
			return 0
		}
	}
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(benchSeed))
		const trials = 200
		var okCombined, okUtil, okWaits int
		total := 0
		for t := 0; t < trials; t++ {
			for _, sc := range scenarios {
				total++
				sig := sc.build(rng)
				check := func(step int) bool {
					if sc.wantUp {
						return step > 0
					}
					if sc.wantDown {
						return step < 0
					}
					return step == 0
				}
				if check(est.Estimate(sig).Steps[resource.CPU]) {
					okCombined++
				}
				if check(utilOnly(sig)) {
					okUtil++
				}
				if check(waitsOnly(sig)) {
					okWaits++
				}
			}
		}
		accC := float64(okCombined) / float64(total) * 100
		accU := float64(okUtil) / float64(total) * 100
		accW := float64(okWaits) / float64(total) * 100
		printOnce("a3", func() {
			fmt.Printf("\nAblation A3: demand-estimation accuracy — combined rules %.0f%%, utilization-only %.0f%%, waits-only %.0f%%\n", accC, accU, accW)
		})
		b.ReportMetric(accC, "combined-acc-%")
		b.ReportMetric(accU, "util-only-acc-%")
		b.ReportMetric(accW, "waits-only-acc-%")
	}
}

// ---------------------------------------------------------------------------
// Ablation A4: aggressive vs conservative token-bucket initialization.
// ---------------------------------------------------------------------------

func BenchmarkAblationBudgetStrategy(b *testing.B) {
	// A bursty trace under a hard budget: the aggressive bucket may burn
	// its surplus on the early bursts; the conservative bucket saves for
	// later. Both must keep the hard cap.
	for i := 0; i < b.N; i++ {
		cat := resource.LockStepCatalog()
		tr := trace.Trace4(720, benchSeed)
		const total = 720 * 11.0
		results := map[budget.Strategy]float64{}
		for _, strat := range []budget.Strategy{budget.Aggressive, budget.Conservative} {
			bud, err := budget.New(strat, total, tr.Len(), cat.Smallest().Cost, cat.Largest().Cost, 3)
			if err != nil {
				b.Fatal(err)
			}
			scaler, err := core.New(core.Config{
				Catalog: cat,
				Initial: cat.Smallest(),
				Goal:    core.LatencyGoal{Kind: core.GoalP95, Ms: 150},
				Budget:  bud,
			})
			if err != nil {
				b.Fatal(err)
			}
			r, err := sim.NewRunner().Run(context.Background(), sim.Spec{
				Workload:   workload.TPCC(),
				Trace:      tr,
				Policy:     policy.NewAuto(scaler),
				Seed:       benchSeed,
				EngineOpts: engine.Options{WarmStart: true},
				GoalMs:     150,
			})
			if err != nil {
				b.Fatal(err)
			}
			if bud.Spent() > total+1e-6 {
				b.Fatalf("%v exceeded the budget: %v > %v", strat, bud.Spent(), total)
			}
			results[strat] = r.P95Ms
		}
		printOnce("a4", func() {
			fmt.Printf("\nAblation A4: p95 under a hard budget — aggressive %.0f ms, conservative %.0f ms (both ≤ budget)\n",
				results[budget.Aggressive], results[budget.Conservative])
		})
		b.ReportMetric(results[budget.Aggressive], "aggressive-p95-ms")
		b.ReportMetric(results[budget.Conservative], "conservative-p95-ms")
	}
}

// ---------------------------------------------------------------------------
// Ablation A5: the performance-sensitivity knob.
// ---------------------------------------------------------------------------

func BenchmarkAblationSensitivityKnob(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := trace.Trace2(450, benchSeed)
		type res struct{ cost, p95 float64 }
		out := map[estimator.Sensitivity]res{}
		for _, sens := range []estimator.Sensitivity{estimator.SensitivityLow, estimator.SensitivityMedium, estimator.SensitivityHigh} {
			comp := cachedComparison(b, fmt.Sprintf("a5-%v", sens), sim.ComparisonSpec{
				Workload:    workload.CPUIO(workload.DefaultCPUIOConfig()),
				Trace:       tr,
				GoalFactor:  1.5,
				Seed:        benchSeed,
				Sensitivity: sens,
			})
			auto := comp.MustByPolicy("Auto")
			out[sens] = res{auto.AvgCostPerInterval, auto.P95Ms}
		}
		printOnce("a5", func() {
			fmt.Printf("\nAblation A5: sensitivity knob — LOW cost %.1f p95 %.0f; MEDIUM cost %.1f p95 %.0f; HIGH cost %.1f p95 %.0f\n",
				out[estimator.SensitivityLow].cost, out[estimator.SensitivityLow].p95,
				out[estimator.SensitivityMedium].cost, out[estimator.SensitivityMedium].p95,
				out[estimator.SensitivityHigh].cost, out[estimator.SensitivityHigh].p95)
		})
		b.ReportMetric(out[estimator.SensitivityLow].cost, "low-cost/interval")
		b.ReportMetric(out[estimator.SensitivityHigh].cost, "high-cost/interval")
	}
}

// ---------------------------------------------------------------------------
// Ablation A6: lock-step vs per-dimension container scaling (Figure 1).
// ---------------------------------------------------------------------------

func BenchmarkAblationDimensionalScaling(b *testing.B) {
	// A disk-I/O-bound workload: with per-dimension variants (high-I/O
	// containers), the demanded IOPS can be bought without paying for CPU
	// and memory the workload does not need.
	ioBound := workload.CPUIO(workload.CPUIOConfig{
		CPUWeight: 0.1, IOWeight: 2, LogWeight: 0.1,
		WorkingSetMB: 1024, HotspotFraction: 0.95,
	})
	for i := 0; i < b.N; i++ {
		tr := trace.Trace2(450, benchSeed)
		costs := map[string]float64{}
		for name, cat := range map[string]*resource.Catalog{
			"lock-step": resource.LockStepCatalog(),
			"per-dim":   resource.DefaultCatalog(),
		} {
			scaler, err := core.New(core.Config{
				Catalog: cat,
				Initial: cat.Smallest(),
			})
			if err != nil {
				b.Fatal(err)
			}
			r, err := sim.NewRunner().Run(context.Background(), sim.Spec{
				Workload:   ioBound,
				Trace:      tr,
				Policy:     policy.NewAuto(scaler),
				Seed:       benchSeed,
				EngineOpts: engine.Options{WarmStart: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			costs[name] = r.AvgCostPerInterval
		}
		printOnce("a6", func() {
			fmt.Printf("\nAblation A6: I/O-bound workload — lock-step cost %.1f/interval vs per-dimension %.1f/interval (%.0f%% saved)\n",
				costs["lock-step"], costs["per-dim"], (1-costs["per-dim"]/costs["lock-step"])*100)
		})
		b.ReportMetric(costs["lock-step"], "lockstep-cost/interval")
		b.ReportMetric(costs["per-dim"], "perdim-cost/interval")
	}
}

// ---------------------------------------------------------------------------
// Ablation A7: the statistical-learning estimator the paper rejected.
// ---------------------------------------------------------------------------

func BenchmarkAblationLearnedEstimator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		train, err := learned.GenerateDataset("cpuio", 100, 4, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		inDomain, err := learned.GenerateDataset("cpuio", 50, 4, benchSeed+50)
		if err != nil {
			b.Fatal(err)
		}
		crossDomain, err := learned.GenerateDataset("tpcc", 50, 4, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		m, err := learned.Train(learned.Samples(train), learned.TrainConfig{})
		if err != nil {
			b.Fatal(err)
		}
		classify := func(s learned.Sample) bool { return m.Classify(s.X) }
		accIn := learned.BalancedAccuracy(learned.Samples(inDomain), classify)
		accCross := learned.BalancedAccuracy(learned.Samples(crossDomain), classify)

		est, err := estimator.New(estimator.DefaultThresholds(), estimator.SensitivityMedium)
		if err != nil {
			b.Fatal(err)
		}
		rulesAcc := func(obs []learned.Observation) float64 {
			preds := make([]bool, len(obs))
			for j, o := range obs {
				preds[j] = est.Estimate(telemetry.SteadySignals(o.Snapshot)).AnyHigh()
			}
			j := -1
			return learned.BalancedAccuracy(learned.Samples(obs), func(learned.Sample) bool { j++; return preds[j] })
		}
		rulesIn := rulesAcc(inDomain)
		rulesCross := rulesAcc(crossDomain)
		printOnce("a7", func() {
			fmt.Printf("\nAblation A7: \"will scaling help?\" balanced accuracy — learned in-domain %.2f → cross-domain %.2f (degrades); rules %.2f → %.2f (holds)\n",
				accIn, accCross, rulesIn, rulesCross)
		})
		b.ReportMetric(accIn, "learned-in-acc")
		b.ReportMetric(accCross, "learned-cross-acc")
		b.ReportMetric(rulesCross, "rules-cross-acc")
	}
}

// ---------------------------------------------------------------------------
// Extension: the budget experiment the paper omits "for brevity"
// (Section 7.2.2). Auto runs the bursty CPUIO experiment under a sweep of
// hard budgets, expressed as multiples of its unconstrained spend: the
// token bucket must keep every run within budget, trading latency for cost
// as the budget tightens.
// ---------------------------------------------------------------------------

func BenchmarkExtensionBudgetSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cat := resource.LockStepCatalog()
		tr := trace.Trace2(450, benchSeed)
		baseline := cachedComparison(b, "budget-base", sim.ComparisonSpec{
			Workload:   workload.CPUIO(workload.DefaultCPUIOConfig()),
			Trace:      tr,
			GoalFactor: 1.25,
			Seed:       benchSeed,
		})
		goal := baseline.GoalMs
		unconstrained := baseline.MustByPolicy("Auto").TotalCost

		type row struct {
			mult       float64
			spend, p95 float64
		}
		var rows []row
		for _, mult := range []float64{1.2, 1.0, 0.8, 0.6} {
			total := unconstrained * mult
			if minTotal := float64(tr.Len()) * cat.Smallest().Cost; total < minTotal {
				total = minTotal
			}
			bud, err := budget.New(budget.Aggressive, total, tr.Len(), cat.Smallest().Cost, cat.Largest().Cost, 0)
			if err != nil {
				b.Fatal(err)
			}
			scaler, err := core.New(core.Config{
				Catalog: cat,
				Initial: cat.Smallest(),
				Goal:    core.LatencyGoal{Kind: core.GoalP95, Ms: goal},
				Budget:  bud,
			})
			if err != nil {
				b.Fatal(err)
			}
			r, err := sim.NewRunner().Run(context.Background(), sim.Spec{
				Workload:   workload.CPUIO(workload.DefaultCPUIOConfig()),
				Trace:      tr,
				Policy:     policy.NewAuto(scaler),
				Seed:       benchSeed,
				EngineOpts: engine.Options{WarmStart: true},
				GoalMs:     goal,
			})
			if err != nil {
				b.Fatal(err)
			}
			if bud.Spent() > total+1e-6 {
				b.Fatalf("budget %.0f exceeded: spent %.2f", total, bud.Spent())
			}
			rows = append(rows, row{mult, r.TotalCost, r.P95Ms})
		}
		printOnce("budget-sweep", func() {
			fmt.Printf("\nExtension: budget sweep (goal %.0f ms, unconstrained Auto spend %.0f)\n", goal, unconstrained)
			fmt.Printf("  %-10s %12s %12s %8s\n", "budget", "spend", "p95 (ms)", "meets")
			for _, r := range rows {
				meets := "yes"
				if r.p95 > goal {
					meets = "NO"
				}
				fmt.Printf("  %9.1fx %12.0f %12.1f %8s\n", r.mult, r.spend, r.p95, meets)
			}
		})
		b.ReportMetric(rows[0].p95, "budget1.2x-p95-ms")
		b.ReportMetric(rows[len(rows)-1].p95, "budget0.6x-p95-ms")
	}
}

// ---------------------------------------------------------------------------
// Extension: scheduled (time-of-day) scaling vs demand-driven scaling.
// Cloud platforms offer clock-based schedules as their second
// application-agnostic knob; this experiment shows where the clock works (a
// perfectly diurnal tenant) and where it fails (bursts that ignore the
// schedule) — while demand-driven scaling handles both.
// ---------------------------------------------------------------------------

func BenchmarkExtensionScheduledVsAuto(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cat := resource.LockStepCatalog()
		w := workload.DS2()
		runOne := func(tr *trace.Trace, p policy.Policy, goal float64) sim.Result {
			r, err := sim.NewRunner().Run(context.Background(), sim.Spec{
				Workload:   w,
				Trace:      tr,
				Policy:     p,
				Seed:       benchSeed,
				EngineOpts: engine.Options{WarmStart: true},
				GoalMs:     goal,
			})
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
		mkSched := func() policy.Policy {
			// The schedule a reasonable admin would derive from the diurnal
			// history: big during business hours, small at night.
			p, err := policy.NewScheduled([]policy.ScheduleEntry{
				{StartMinute: 8 * 60, Container: cat.AtStep(5)},
				{StartMinute: 20 * 60, Container: cat.AtStep(2)}, // nights: still big enough for the hot set
			})
			if err != nil {
				b.Fatal(err)
			}
			return p
		}
		mkAuto := func(goal float64) policy.Policy {
			scaler, err := core.New(core.Config{
				Catalog: cat,
				Initial: cat.Smallest(),
				Goal:    core.LatencyGoal{Kind: core.GoalP95, Ms: goal},
			})
			if err != nil {
				b.Fatal(err)
			}
			return policy.NewAuto(scaler)
		}
		const goal = 60.0
		diurnal := trace.Diurnal(1440, benchSeed)
		spiky := trace.Trace4(1440, benchSeed)

		schedDiurnal := runOne(diurnal, mkSched(), goal)
		autoDiurnal := runOne(diurnal, mkAuto(goal), goal)
		schedSpiky := runOne(spiky, mkSched(), goal)
		autoSpiky := runOne(spiky, mkAuto(goal), goal)

		printOnce("sched-vs-auto", func() {
			fmt.Printf("\nExtension: scheduled vs demand-driven scaling (goal p95 ≤ %.0f ms)\n", goal)
			fmt.Printf("  %-22s %10s %12s %8s\n", "policy × trace", "p95 (ms)", "cost/interval", "meets")
			for _, r := range []struct {
				name string
				res  sim.Result
			}{
				{"Sched × diurnal", schedDiurnal},
				{"Auto  × diurnal", autoDiurnal},
				{"Sched × spiky", schedSpiky},
				{"Auto  × spiky", autoSpiky},
			} {
				meets := "yes"
				if r.res.P95Ms > goal {
					meets = "NO"
				}
				fmt.Printf("  %-22s %10.1f %12.1f %8s\n", r.name, r.res.P95Ms, r.res.AvgCostPerInterval, meets)
			}
		})
		b.ReportMetric(schedSpiky.P95Ms, "sched-spiky-p95-ms")
		b.ReportMetric(autoSpiky.P95Ms, "auto-spiky-p95-ms")
		b.ReportMetric(autoDiurnal.AvgCostPerInterval, "auto-diurnal-cost")
		b.ReportMetric(schedDiurnal.AvgCostPerInterval, "sched-diurnal-cost")
	}
}

// ---------------------------------------------------------------------------
// Extension: per-dimension container scaling on the standard experiments.
// Section 6 closes with "If the DaaS supports scaling containers in each
// resource dimension ... the auto-scaling logic can leverage that" (Figure
// 1). This experiment reruns the headline workloads with the full catalog
// (high-CPU / high-memory / high-I/O variants included) and reports Auto's
// savings over the lock-step ladder.
// ---------------------------------------------------------------------------

func BenchmarkExtensionPerDimensionCatalog(b *testing.B) {
	type exp struct {
		name string
		w    *workload.Workload
		tr   *trace.Trace
	}
	exps := []exp{
		{"cpuio×trace2", workload.CPUIO(workload.DefaultCPUIOConfig()), trace.Trace2(900, benchSeed)},
		{"tpcc×trace4", workload.TPCC(), trace.Trace4(1440, benchSeed)},
	}
	for i := 0; i < b.N; i++ {
		results := map[string][2]float64{} // name → [lockstep, perdim] Auto cost
		for _, e := range exps {
			var costs [2]float64
			for j, cat := range []*resource.Catalog{resource.LockStepCatalog(), resource.DefaultCatalog()} {
				comp := cachedComparison(b, fmt.Sprintf("perdim-%s-%d", e.name, j), sim.ComparisonSpec{
					Catalog:    cat,
					Workload:   e.w,
					Trace:      e.tr,
					GoalFactor: 1.25,
					Seed:       benchSeed,
				})
				auto := comp.MustByPolicy("Auto")
				if auto.P95Ms > comp.GoalMs*1.1 {
					b.Fatalf("%s catalog %d: Auto missed the goal (%v > %v)", e.name, j, auto.P95Ms, comp.GoalMs)
				}
				costs[j] = auto.AvgCostPerInterval
			}
			results[e.name] = costs
		}
		printOnce("perdim", func() {
			fmt.Println("\nExtension: per-dimension container scaling (Auto cost/interval, both meeting the goal)")
			for _, e := range exps {
				c := results[e.name]
				fmt.Printf("  %-14s lock-step %7.2f → per-dimension %7.2f (%.0f%% saved)\n",
					e.name, c[0], c[1], (1-c[1]/c[0])*100)
			}
		})
		c := results["cpuio×trace2"]
		b.ReportMetric(c[0], "cpuio-lockstep-cost")
		b.ReportMetric(c[1], "cpuio-perdim-cost")
	}
}
