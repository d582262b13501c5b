// Package report renders experiment results in the shape the paper reports
// them: per-policy latency/cost comparison tables (Figures 9–12), the
// drill-down series behind Figure 13, fleet-analysis summaries (Figure 2),
// wait-distribution tables (Figures 4 and 6), ASCII time-series charts, and
// CSV exports for external plotting.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"daasscale/internal/fabric"
	"daasscale/internal/fleet"
	"daasscale/internal/loop"
	"daasscale/internal/resource"
	"daasscale/internal/sim"
	"daasscale/internal/stats"
	"daasscale/internal/telemetry"
)

// ComparisonTable writes the per-policy table of one experiment in the
// paper's format: 95th-percentile latency, average cost per billing
// interval, and resize activity.
func ComparisonTable(w io.Writer, title string, comp sim.Comparison) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "latency goal: p95 ≤ %.0f ms\n", comp.GoalMs)
	fmt.Fprintf(w, "%-6s  %12s  %12s  %14s  %8s  %7s\n",
		"policy", "p95 (ms)", "avg (ms)", "cost/interval", "changes", "meets")
	for _, r := range comp.Results {
		meets := "yes"
		if !r.MeetsGoal(comp.GoalMs) {
			meets = "NO"
		}
		fmt.Fprintf(w, "%-6s  %12.1f  %12.1f  %14.2f  %7.1f%%  %7s\n",
			r.Policy, r.P95Ms, r.AvgMs, r.AvgCostPerInterval, r.ChangeFraction*100, meets)
	}
	if auto, ok := comp.ByPolicy("Auto"); ok {
		fmt.Fprintf(w, "cost ratios vs Auto:")
		for _, r := range comp.Results {
			if r.Policy == "Auto" || auto.AvgCostPerInterval == 0 {
				continue
			}
			fmt.Fprintf(w, "  %s %.2fx", r.Policy, r.AvgCostPerInterval/auto.AvgCostPerInterval)
		}
		fmt.Fprintln(w)
	}
}

// WaitMixTable writes the Figure 13(c) percentage-wait breakdown,
// aggregated over the run (median share per class).
func WaitMixTable(w io.Writer, r sim.Result) {
	fmt.Fprintf(w, "wait mix: %s on %s × %s (median share per class)\n", r.Policy, r.Workload, r.Trace)
	for _, wc := range telemetry.WaitClasses {
		xs := make([]float64, len(r.Series))
		for i, pt := range r.Series {
			xs[i] = pt.WaitPct[wc]
		}
		fmt.Fprintf(w, "  %-7s %6.1f%%\n", wc, stats.Median(xs)*100)
	}
}

// FleetSummary writes the Figure 2 analysis in the paper's terms.
func FleetSummary(w io.Writer, a fleet.Analysis) {
	fmt.Fprintf(w, "fleet analysis: %d tenants, %d change events\n", a.Tenants, a.TotalChanges)
	fmt.Fprintf(w, "  IEI within 60 min:            %5.1f%%  (paper: ≈86%%)\n", a.IEIWithin60Min*100)
	for _, m := range []float64{120, 360, 720, 1440} {
		fmt.Fprintf(w, "  IEI within %4.0f min:           %5.1f%%\n", m, stats.CDFAt(a.IEICDF, m)*100)
	}
	fmt.Fprintf(w, "  tenants ≥1 change/day:        %5.1f%%  (paper: >78%%)\n", a.FracAtLeastOnePerDay*100)
	fmt.Fprintf(w, "  tenants ≥6 changes/day:       %5.1f%%  (paper: >52%%)\n", a.FracAtLeastSixPerDay*100)
	fmt.Fprintf(w, "  tenants >24 changes/day:      %5.1f%%  (paper: ≈28%%)\n", a.FracMoreThan24PerDay*100)
	fmt.Fprintf(w, "  1-step resizes:               %5.1f%%  (paper: ≈90%%)\n", a.OneStepShare*100)
	fmt.Fprintf(w, "  ≤2-step resizes:              %5.1f%%  (paper: ≈98%%)\n", a.AtMostTwoStepsShare*100)
	fmt.Fprintf(w, "  changes/day histogram (bucket upper edges 1,2,3,6,12,24,∞):\n   ")
	for _, b := range a.ChangesPerDayHist {
		fmt.Fprintf(w, " %d", b.Count)
	}
	fmt.Fprintln(w)
}

// WaitDigestTable writes the Figure 6 percentile view for one resource,
// read from a fleet.WaitDigest's sketches: wait magnitudes and percentage
// waits at low vs high utilization.
func WaitDigestTable(w io.Writer, d *fleet.WaitDigest) {
	fmt.Fprintf(w, "wait distributions for %s (low util <30%%: %d samples, high util >70%%: %d samples)\n",
		d.Kind(), d.LowCount(), d.HighCount())
	fmt.Fprintf(w, "  %-12s %12s %12s\n", "percentile", "low-util ms", "high-util ms")
	for _, q := range []float64{0.5, 0.75, 0.9, 0.95} {
		fmt.Fprintf(w, "  p%-11.0f %12.0f %12.0f\n", q*100,
			d.LowMs().Quantile(q), d.HighMs().Quantile(q))
	}
	fmt.Fprintf(w, "  separation (high p75 / low p90): %.1fx\n", d.Separation())
	fmt.Fprintf(w, "  %%-wait medians: low %.0f%%, high %.0f%%\n",
		d.LowPct().Quantile(0.5)*100, d.HighPct().Quantile(0.5)*100)
}

// ASCIIChart renders a time series as a fixed-size ASCII chart — enough to
// eyeball the Figure 8 trace shapes and the Figure 13/14 series in a
// terminal.
func ASCIIChart(w io.Writer, title string, ys []float64, width, height int) {
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 12
	}
	fmt.Fprintln(w, title)
	if len(ys) == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	// Downsample to width columns (max within each bucket, so spikes stay
	// visible).
	cols := make([]float64, width)
	for c := 0; c < width; c++ {
		lo := c * len(ys) / width
		hi := (c + 1) * len(ys) / width
		if hi <= lo {
			hi = lo + 1
		}
		m := math.Inf(-1)
		for i := lo; i < hi && i < len(ys); i++ {
			if ys[i] > m {
				m = ys[i]
			}
		}
		cols[c] = m
	}
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, v := range cols {
		minY = math.Min(minY, v)
		maxY = math.Max(maxY, v)
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for c, v := range cols {
		level := int((v - minY) / (maxY - minY) * float64(height-1))
		for r := 0; r <= level; r++ {
			grid[height-1-r][c] = '#'
		}
	}
	for r, row := range grid {
		label := "          "
		if r == 0 {
			label = fmt.Sprintf("%9.1f ", maxY)
		} else if r == height-1 {
			label = fmt.Sprintf("%9.1f ", minY)
		}
		fmt.Fprintf(w, "%s|%s\n", label, string(row))
	}
}

// SeriesCSV exports a run's per-interval series for external plotting.
func SeriesCSV(w io.Writer, series []sim.IntervalPoint) error {
	cw := csv.NewWriter(w)
	header := []string{"interval", "container", "step", "cost", "container_cpu_frac",
		"cpu_util_frac", "offered_rps", "avg_ms", "p95_ms", "performance_factor",
		"memory_used_mb", "physical_reads", "balloon_target_mb"}
	for _, wc := range telemetry.WaitClasses {
		header = append(header, "waitpct_"+wc.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string {
		if math.IsNaN(v) {
			return ""
		}
		return strconv.FormatFloat(v, 'f', 4, 64)
	}
	for _, pt := range series {
		row := []string{
			strconv.Itoa(pt.Interval), pt.Container, strconv.Itoa(pt.Step),
			f(pt.Cost), f(pt.ContainerCPUFrac), f(pt.CPUUtilFrac), f(pt.OfferedRPS),
			f(pt.AvgMs), f(pt.P95Ms), f(pt.PerformanceFactor),
			f(pt.MemoryUsedMB), f(pt.PhysicalReads), f(pt.BalloonTargetMB),
		}
		for _, wc := range telemetry.WaitClasses {
			row = append(row, f(pt.WaitPct[wc]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// NodeTable writes the per-server cluster view behind the paper's §7
// co-location analysis: how many tenants each node hosts, how full every
// resource dimension is, and how contended the shared channels are (the
// interference the residents actually run under).
func NodeTable(w io.Writer, title string, res sim.MultiTenantResult) {
	fmt.Fprintf(w, "node utilization: %s\n", title)
	fmt.Fprintf(w, "%4s  %7s", "node", "tenants")
	for _, k := range resource.Kinds {
		fmt.Fprintf(w, "  %8s", k)
	}
	for _, ch := range fabric.PressureChannels {
		fmt.Fprintf(w, "  %11s", ch)
	}
	fmt.Fprintf(w, "  %9s\n", "inflation")
	for _, n := range res.Nodes {
		fmt.Fprintf(w, "%4d  %7d", n.Node, n.Tenants)
		for _, k := range resource.Kinds {
			fmt.Fprintf(w, "  %7.1f%%", n.Utilization[k]*100)
		}
		for _, ch := range fabric.PressureChannels {
			fmt.Fprintf(w, "  %11.2f", n.Pressure[ch])
		}
		fmt.Fprintf(w, "  %8.2fx\n", n.Inflation.Max())
	}
	fmt.Fprintf(w, "cluster: %d migration(s) (%d by rebalancer), %d refusal(s), peak CPU alloc %.1f%%",
		res.Migrations, res.RebalanceMigrations, res.Refusals, res.PeakClusterCPUFrac*100)
	if res.PeakWaitInflation > 0 {
		fmt.Fprintf(w, ", peak wait inflation %.2fx", res.PeakWaitInflation)
	}
	fmt.Fprintln(w)
}

// CDFTable writes selected points of a CDF (value, cumulative fraction).
func CDFTable(w io.Writer, title string, cdf []stats.CDFPoint, at []float64) {
	fmt.Fprintln(w, title)
	for _, v := range at {
		fmt.Fprintf(w, "  ≤ %8.0f: %5.1f%%\n", v, stats.CDFAt(cdf, v)*100)
	}
}

// MarkdownComparison writes the per-policy table of one experiment as a
// GitHub-flavored markdown table — the building block for regenerating an
// EXPERIMENTS.md-style report from live runs.
func MarkdownComparison(w io.Writer, title string, comp sim.Comparison) {
	fmt.Fprintf(w, "## %s\n\n", title)
	fmt.Fprintf(w, "Latency goal: p95 ≤ %.0f ms.\n\n", comp.GoalMs)
	fmt.Fprintln(w, "| policy | p95 (ms) | avg (ms) | cost/interval | resizes | meets goal |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, r := range comp.Results {
		meets := "✓"
		if !r.MeetsGoal(comp.GoalMs) {
			meets = "✗"
		}
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %.2f | %.1f%% | %s |\n",
			r.Policy, r.P95Ms, r.AvgMs, r.AvgCostPerInterval, r.ChangeFraction*100, meets)
	}
	if auto, ok := comp.ByPolicy("Auto"); ok && auto.AvgCostPerInterval > 0 {
		fmt.Fprintf(w, "\nCost ratios vs Auto:")
		for _, r := range comp.Results {
			if r.Policy == "Auto" {
				continue
			}
			fmt.Fprintf(w, " %s %.2f×", r.Policy, r.AvgCostPerInterval/auto.AvgCostPerInterval)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// ExplainTable renders a decision-audit trail — the `-explain` view: one
// line per interval that carried a decision event (a resize, a withheld
// interval, fault or actuation activity), each followed by the policy's
// rule-firing explanations (the estimator's §4 narrative). Quiet
// intervals are elided; maxRows caps the lines shown (0 → 60).
func ExplainTable(w io.Writer, title string, records []loop.DecisionRecord, maxRows int) {
	if maxRows <= 0 {
		maxRows = 60
	}
	fmt.Fprintf(w, "decision audit: %s\n", title)
	shown, elided := 0, 0
	for _, r := range records {
		if !explainWorthy(r) {
			elided++
			continue
		}
		if shown >= maxRows {
			elided++
			continue
		}
		shown++
		fmt.Fprintf(w, "%6d  %s\n", r.Interval, explainEvent(r))
		for _, e := range r.Explanations {
			fmt.Fprintf(w, "          · %s\n", e)
		}
	}
	if shown == 0 {
		fmt.Fprintln(w, "  (no decision events)")
	}
	if elided > 0 {
		fmt.Fprintf(w, "  (%d quiet or overflow intervals elided)\n", elided)
	}
}

// explainWorthy reports whether an interval's record carries an event
// worth a line in the audit view.
func explainWorthy(r loop.DecisionRecord) bool {
	return r.Changed || !r.Observed || len(r.Explanations) > 0 ||
		r.Faults.Total() > 0 || r.Actuation.Applied > 0 ||
		r.Actuation.Refused > 0 || r.Actuation.Expired > 0 ||
		r.Actuation.Superseded > 0
}

// explainEvent summarizes one record's decision and channel activity.
func explainEvent(r loop.DecisionRecord) string {
	var b strings.Builder
	switch {
	case !r.Observed:
		fmt.Fprintf(&b, "telemetry withheld — holding %s", r.Actual)
	case r.Changed && r.Submitted:
		fmt.Fprintf(&b, "desire %s → %s", r.Actual, r.Target)
	case r.Changed:
		fmt.Fprintf(&b, "resize %s → %s", r.Actual, r.Target)
	default:
		fmt.Fprintf(&b, "keep %s", r.Actual)
	}
	if r.BalloonTargetMB > 0 {
		fmt.Fprintf(&b, ", balloon %.0fMB", r.BalloonTargetMB)
	}
	if n := r.Faults.Total(); n > 0 {
		fmt.Fprintf(&b, "  [%d fault event(s), %d snapshot(s) delivered]", n, r.Delivered)
	}
	var acts []string
	if r.Actuation.Applied > 0 {
		acts = append(acts, fmt.Sprintf("%d applied", r.Actuation.Applied))
	}
	if r.Actuation.Refused > 0 {
		acts = append(acts, fmt.Sprintf("%d refused", r.Actuation.Refused))
	}
	if r.Actuation.Throttled > 0 {
		acts = append(acts, fmt.Sprintf("%d throttled", r.Actuation.Throttled))
	}
	if r.Actuation.TransientFailures > 0 {
		acts = append(acts, fmt.Sprintf("%d failed", r.Actuation.TransientFailures))
	}
	if r.Actuation.Superseded > 0 {
		acts = append(acts, fmt.Sprintf("%d superseded", r.Actuation.Superseded))
	}
	if r.Actuation.Expired > 0 {
		acts = append(acts, fmt.Sprintf("%d expired", r.Actuation.Expired))
	}
	if len(acts) > 0 {
		fmt.Fprintf(&b, "  [actuation: %s]", strings.Join(acts, ", "))
	}
	return b.String()
}
