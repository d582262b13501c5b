// Command daas-experiments regenerates every table and figure of the
// paper's evaluation in one run:
//
//	Figure 2   — fleet change-event analysis (IEI CDF, changes/day),
//	Figure 4   — wait magnitude vs utilization (correlation),
//	Figure 6   — wait distributions at low/high utilization,
//	Figure 8   — the four load traces (CSV with -out),
//	Figure 9   — CPUIO × Trace 2 at 1.25× and 5× goals,
//	Figure 10  — TPC-C × Trace 4 at 1.25× goal,
//	Figure 11  — CPUIO × Trace 3 at 5× goal,
//	Figure 12  — DS2 × Trace 1 at 1.25× goal,
//	Figure 13  — the Util-vs-Auto drill-down of the TPC-C experiment,
//	Figure 14  — ballooning vs naive memory scale-down,
//	Section 4  — resize step-size statistics.
//
// Usage:
//
//	daas-experiments [-seed S] [-quick] [-workers W] [-progress] [-faults R]
//	                 [-actuation-latency N -actuation-fail R]
//	                 [-explain -explain-rows N]
//
// With -explain every end-to-end comparison additionally collects the Auto
// policy's per-interval decision-audit stream (loop.DecisionRecord) and
// prints its rule-level explanations after the comparison table.
//
// With -out DIR (created if missing) the four Figure 8 traces land in DIR
// as trace1.csv … trace4.csv (minute, requests/sec), beside every policy's
// per-interval series of Figures 9–12.
//
// With -faults R > 0 every simulation's telemetry channel runs under a
// deterministic uniform fault plan (rate R spread over the fault kinds) —
// the chaos-mode replication of the evaluation. Results stay reproducible
// and worker-count independent.
//
// With -actuation-latency N > 0 (and optionally -actuation-fail R) every
// resize a policy decides is executed asynchronously: it lands N intervals
// later, can fail transiently, retries with backoff, and the latest desired
// container is reconciled. The offline Max runs that derive each
// experiment's latency goal stay synchronous, so actuated reports remain
// comparable to clean ones.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"daasscale/internal/actuate"
	"daasscale/internal/engine"
	"daasscale/internal/exec"
	"daasscale/internal/fabric"
	"daasscale/internal/faults"
	"daasscale/internal/fleet"
	"daasscale/internal/report"
	"daasscale/internal/resource"
	"daasscale/internal/sim"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daas-experiments: ")
	seed := flag.Int64("seed", 42, "seed for every experiment")
	quick := flag.Bool("quick", false, "fast smoke run: smaller fleet, decimated traces (online policies get less reaction headroom, so their numbers are distorted)")
	workers := flag.Int("workers", 0, "worker-pool width for parallel simulation (0 = all cores); never changes results")
	progress := flag.Bool("progress", false, "print live executor metrics to stderr")
	faultRate := flag.Float64("faults", 0, "total telemetry fault rate in [0,1] for every simulation (0 = clean)")
	actLatency := flag.Int("actuation-latency", 0, "billing intervals every resize takes to execute (0 = synchronous)")
	actFail := flag.Float64("actuation-fail", 0, "per-attempt resize failure probability in [0,1] (needs -actuation-latency or is its own trigger)")
	contention := flag.Bool("contention", false, "append the Section 7 cluster study: noisy-neighbor contention off vs on vs on+rebalance")
	explain := flag.Bool("explain", false, "append Auto's decision-audit trail to every end-to-end comparison")
	explainRows := flag.Int("explain-rows", 20, "maximum audit lines per -explain trail")
	outDir := flag.String("out", "", "also write the four traces and every policy's per-interval series as CSV files into this directory (created if missing)")
	markdownPath := flag.String("markdown", "", "also write the comparison tables as a markdown report to this file")
	flag.Parse()

	// Ctrl-C cancels the current experiment cleanly (sim.ErrCanceled)
	// instead of killing the process mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	execOpts := exec.Options{Workers: *workers}
	runnerOpts := []sim.Option{sim.WithParallelism(*workers), sim.WithSeed(*seed)}
	if *faultRate > 0 {
		runnerOpts = append(runnerOpts, sim.WithFaults(faults.Uniform(*faultRate)))
		fmt.Fprintf(os.Stderr, "note: telemetry chaos mode, total fault rate %.0f%%\n", *faultRate*100)
	}
	if *actLatency > 0 || *actFail > 0 {
		runnerOpts = append(runnerOpts, sim.WithActuation(actuate.Config{
			Seed:             1,
			LatencyIntervals: *actLatency,
			FailRate:         *actFail,
		}))
		fmt.Fprintf(os.Stderr, "note: actuated resizes, latency %d intervals, fail rate %.0f%%\n",
			*actLatency, *actFail*100)
	}
	if *progress {
		prog := report.NewProgress(os.Stderr, "tasks", time.Millisecond)
		// Terminate the in-place line when main returns so the shell
		// prompt never lands on top of a stale \r line.
		defer prog.Finish()
		execOpts.OnProgress = prog.Hook()
		runnerOpts = append(runnerOpts, sim.WithProgress(prog.Hook()))
	}
	runner := sim.NewRunner(runnerOpts...)

	if *outDir != "" {
		// Before the first experiment, so a bad path fails in milliseconds.
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	var md *os.File
	if *markdownPath != "" {
		var err error
		if md, err = os.Create(*markdownPath); err != nil {
			log.Fatal(err)
		}
		defer md.Close()
		fmt.Fprintf(md, "# daasscale experiment report (seed %d)\n\n", *seed)
	}

	tenants, days, configs := 2000, 7, 300
	decimate := 1
	if *quick {
		tenants, days, configs = 200, 3, 60
		decimate = 4
	}
	cat := resource.LockStepCatalog()
	out := os.Stdout

	section := func(title string) { fmt.Fprintf(out, "\n========== %s ==========\n", title) }

	// ---- Figure 2 -------------------------------------------------------
	section("Figure 2: resource demand analysis in production (synthetic fleet)")
	fleetSpec, err := fleet.NewFleetSpec(tenants, days, *seed,
		fleet.WithParallelism(*workers), fleet.WithCatalog(cat))
	if err != nil {
		log.Fatal(err)
	}
	fleetRes, err := fleet.Stream(ctx, fleetSpec, nil)
	if err != nil {
		log.Fatal(err)
	}
	report.FleetSummary(out, fleetRes.Analysis)

	// ---- Figures 4 & 6 ----------------------------------------------------
	section("Figures 4 & 6: wait statistics vs utilization")
	calSpec, err := fleet.NewCalibrationSpec(configs, 4, *seed, fleet.WithParallelism(*workers))
	if err != nil {
		log.Fatal(err)
	}
	cal, err := fleet.StreamCalibration(ctx, calSpec, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range cal.Digests {
		rho, err := d.Correlation()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "\n%s wait–utilization Spearman ρ = %.2f (Figure 4: increasing but weak)\n", d.Kind(), rho)
		report.WaitDigestTable(out, d)
	}
	th := cal.Thresholds
	fmt.Fprintln(out, "\ncalibrated thresholds (Section 4.1):")
	for _, k := range resource.Kinds {
		fmt.Fprintf(out, "  %-7s waits LOW < %8.0f, HIGH ≥ %8.0f ms/interval\n", k, th.WaitLowMs[k], th.WaitHighMs[k])
	}

	// ---- Figure 8 ----------------------------------------------------------
	section("Figure 8: traces derived from real-life workloads")
	traces := trace.Standard(*seed)
	for _, tr := range traces {
		report.ASCIIChart(out, fmt.Sprintf("%s (mean %.0f rps, peak %.0f rps)", tr.Name, tr.Mean(), tr.Peak()), tr.RPS, 72, 8)
		if *outDir != "" {
			if err := writeCSV(filepath.Join(*outDir, tr.Name+".csv"), tr.WriteCSV); err != nil {
				log.Fatal(err)
			}
		}
	}

	// ---- End-to-end comparisons (Figures 9–12) ---------------------------
	type exp struct {
		title      string
		w          *workload.Workload
		tr         *trace.Trace
		goalFactor float64
	}
	maybeDecimate := func(tr *trace.Trace) *trace.Trace { return tr.Decimate(decimate) }
	exps := []exp{
		{"Figure 9(a): CPUIO × Trace 2, goal 1.25×Max", workload.CPUIO(workload.DefaultCPUIOConfig()), maybeDecimate(traces[1]), 1.25},
		{"Figure 9(b): CPUIO × Trace 2, goal 5×Max", workload.CPUIO(workload.DefaultCPUIOConfig()), maybeDecimate(traces[1]), 5},
		{"Figure 10: TPC-C × Trace 4, goal 1.25×Max", workload.TPCC(), maybeDecimate(traces[3]), 1.25},
		{"Figure 11: CPUIO × Trace 3, goal 5×Max", workload.CPUIO(workload.DefaultCPUIOConfig()), maybeDecimate(traces[2]), 5},
		{"Figure 12: DS2 × Trace 1, goal 1.25×Max", workload.DS2(), maybeDecimate(traces[0]), 1.25},
	}
	var tpccComp sim.Comparison
	for _, e := range exps {
		section(e.title)
		comp, err := runner.RunComparison(ctx, sim.ComparisonSpec{
			Workload:   e.w,
			Trace:      e.tr,
			GoalFactor: e.goalFactor,
			Audit:      *explain,
		})
		if err != nil {
			log.Fatal(err)
		}
		report.ComparisonTable(out, e.title, comp)
		if *explain {
			if r, ok := comp.ByPolicy("Auto"); ok {
				fmt.Fprintln(out)
				report.ExplainTable(out, "Auto — "+e.title, r.Audit, *explainRows)
			}
		}
		if md != nil {
			report.MarkdownComparison(md, e.title, comp)
		}
		if *outDir != "" {
			for _, r := range comp.Results {
				name := fmt.Sprintf("%s_%s_goal%.2fx_%s.csv", r.Workload, r.Trace, e.goalFactor, r.Policy)
				write := func(w io.Writer) error { return report.SeriesCSV(w, r.Series) }
				if err := writeCSV(filepath.Join(*outDir, name), write); err != nil {
					log.Fatal(err)
				}
			}
		}
		if e.w.Name == "tpcc" {
			tpccComp = comp
		}
	}

	// ---- Figure 13 ---------------------------------------------------------
	section("Figure 13: drill-down — why Util overpays on the lock-bound workload")
	for _, p := range []string{"Util", "Auto"} {
		r, ok := tpccComp.ByPolicy(p)
		if !ok {
			log.Fatalf("missing %s result", p)
		}
		frac := make([]float64, len(r.Series))
		for i, pt := range r.Series {
			frac[i] = pt.ContainerCPUFrac * 100
		}
		report.ASCIIChart(out, fmt.Sprintf("%s: container max CPU as %% of server", p), frac, 72, 8)
		report.WaitMixTable(out, r)
	}

	// ---- Figure 14 ---------------------------------------------------------
	section("Figure 14: ballooning and low memory demand")
	ball, err := runner.RunBallooning(ctx, sim.BallooningSpec{})
	if err != nil {
		log.Fatal(err)
	}
	for _, arm := range []sim.BallooningArm{ball.Without, ball.With} {
		mem := make([]float64, len(arm.Series))
		lat := make([]float64, len(arm.Series))
		for i, pt := range arm.Series {
			mem[i] = pt.MemoryUsedMB
			lat[i] = pt.AvgMs
		}
		report.ASCIIChart(out, arm.Name+": memory used (MB)", mem, 72, 7)
		report.ASCIIChart(out, arm.Name+": average latency (ms)", lat, 72, 7)
		fmt.Fprintf(out, "%s: baseline %.1f ms, peak %.1f ms, min memory %.0f MB (working set %.0f MB)\n\n",
			arm.Name, arm.BaselineAvgMs(), arm.PeakAvgMs(), arm.MinMemoryMB(), ball.WorkingSetMB)
	}

	// ---- Section 4 step sizes ----------------------------------------------
	section("Section 4: resize step sizes across the fleet")
	fmt.Fprintf(out, "1-step resizes:  %.1f%%  (paper: ≈90%%)\n", fleetRes.Analysis.OneStepShare*100)
	fmt.Fprintf(out, "≤2-step resizes: %.1f%%  (paper: ≈98%%)\n", fleetRes.Analysis.AtMostTwoStepsShare*100)

	// ---- Section 7 cluster study -------------------------------------------
	if *contention {
		section("Section 7: co-location, noisy neighbors and goal-preserving rebalancing")
		runContentionStudy(ctx, out, *seed, *workers)
	}
}

// contentionModel is the deliberately aggressive interference model of the
// Section 7 study: tiny shared-channel fractions so that even a
// modestly-packed node overcommits and inflates its residents' waits.
func contentionModel() fabric.Contention {
	return fabric.Contention{
		Enable:       true,
		ShareFrac:    [fabric.NumPressureChannels]float64{0.10, 0.10, 0.10},
		Slope:        1.5,
		MaxInflation: 4,
	}
}

// contentionClusterSpec is the study's fixed cluster: six steady tenants
// whose settled demand fits their p95 goal comfortably — so any violation
// that appears under the interference model is attributable to neighbors,
// and disappearing again under the rebalancer is attributable to placement.
func contentionClusterSpec(seed int64) sim.MultiTenantSpec {
	var tenants []sim.TenantSpec
	for i := 0; i < 6; i++ {
		w := workload.TPCC()
		if i%2 == 1 {
			w = workload.DS2()
		}
		tenants = append(tenants, sim.TenantSpec{
			ID:       fmt.Sprintf("t%d", i),
			Workload: w,
			Trace:    trace.Trace1(60, int64(i+1)).Scale(0.3),
			GoalMs:   60,
		})
	}
	return sim.MultiTenantSpec{
		Tenants:    tenants,
		Servers:    6,
		Policy:     fabric.FirstFit,
		EngineOpts: engine.Options{WarmStart: true},
		Seed:       seed,
		Audit:      true,
	}
}

// runContentionStudy runs the same cluster three times — interference model
// off, on, and on with the placement optimizer — and reports settled-tail
// goal attainment plus the per-node pressure view for each arm.
func runContentionStudy(ctx context.Context, out *os.File, seed int64, workers int) {
	arms := []struct {
		name  string
		tweak func(*sim.MultiTenantSpec)
	}{
		{"contention off", func(*sim.MultiTenantSpec) {}},
		{"contention on", func(s *sim.MultiTenantSpec) { s.Contention = contentionModel() }},
		{"contention on + rebalance every 5", func(s *sim.MultiTenantSpec) {
			s.Contention = contentionModel()
			s.RebalanceEvery = 5
		}},
	}
	runner := sim.NewRunner(sim.WithParallelism(workers))
	for _, arm := range arms {
		spec := contentionClusterSpec(seed)
		arm.tweak(&spec)
		res, err := runner.RunMultiTenant(ctx, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "\n--- %s ---\n", arm.name)
		fmt.Fprintf(out, "%-5s  %14s  %14s  %6s  %6s  %6s\n",
			"id", "settled p95", "peak inflation", "migr", "rebal", "meets")
		for _, t := range res.Tenants {
			// The settled tail (last quarter of the run) separates steady-state
			// goal attainment from cold-start transients.
			settled, peakInf := 0.0, 1.0
			for _, rec := range t.Audit {
				if infl := rec.WaitInflation.Max(); infl > peakInf {
					peakInf = infl
				}
				if rec.Interval >= 45 && rec.Snapshot.P95LatencyMs > settled {
					settled = rec.Snapshot.P95LatencyMs
				}
			}
			meets := "yes"
			if settled > 60 {
				meets = "NO"
			}
			fmt.Fprintf(out, "%-5s  %11.1f ms  %13.2fx  %6d  %6d  %6s\n",
				t.ID, settled, peakInf, t.Migrations, t.RebalanceMigrations, meets)
		}
		report.NodeTable(out, arm.name, res)
	}
}

// writeCSV creates path and fills it with write, for external plotting.
func writeCSV(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
