package report

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"daasscale/internal/fabric"
	"daasscale/internal/fleet"
	"daasscale/internal/resource"
	"daasscale/internal/sim"
	"daasscale/internal/stats"
	"daasscale/internal/telemetry"
)

func sampleResult() sim.Result {
	r := sim.Result{
		Policy: "Auto", Workload: "tpcc", Trace: "trace4",
		Intervals: 4, TotalCost: 120, AvgCostPerInterval: 30,
		P95Ms: 110, AvgMs: 40, Changes: 1, ChangeFraction: 0.25,
	}
	for i := 0; i < 4; i++ {
		pt := sim.IntervalPoint{
			Interval: i, Container: "C2", Step: 2, Cost: 30,
			ContainerCPUFrac: 0.0625, CPUUtilFrac: 0.01,
			OfferedRPS: 100, AvgMs: 40, P95Ms: 110, PerformanceFactor: 10,
			MemoryUsedMB: 2048, PhysicalReads: 100,
		}
		pt.WaitPct[telemetry.WaitLock] = 0.9
		pt.WaitPct[telemetry.WaitCPU] = 0.1
		r.Series = append(r.Series, pt)
	}
	return r
}

func TestComparisonTable(t *testing.T) {
	comp := sim.Comparison{GoalMs: 130, Results: []sim.Result{
		{Policy: "Max", P95Ms: 100, AvgMs: 30, AvgCostPerInterval: 270},
		{Policy: "Util", P95Ms: 120, AvgMs: 50, AvgCostPerInterval: 60},
		{Policy: "Auto", P95Ms: 110, AvgMs: 40, AvgCostPerInterval: 30},
		{Policy: "Avg", P95Ms: 500, AvgMs: 200, AvgCostPerInterval: 15},
	}}
	var buf bytes.Buffer
	ComparisonTable(&buf, "Figure 10", comp)
	out := buf.String()
	for _, want := range []string{"Figure 10", "p95 ≤ 130", "Max", "Util", "Auto", "NO", "cost ratios vs Auto:", "Util 2.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWaitMixTable(t *testing.T) {
	var buf bytes.Buffer
	WaitMixTable(&buf, sampleResult())
	if !strings.Contains(buf.String(), "lock") || !strings.Contains(buf.String(), "90.0%") {
		t.Errorf("wait mix missing:\n%s", buf.String())
	}
}

func TestFleetSummary(t *testing.T) {
	spec, err := fleet.NewFleetSpec(30, 3, 1, fleet.WithCatalog(resource.LockStepCatalog()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Stream(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	FleetSummary(&buf, res.Analysis)
	out := buf.String()
	for _, want := range []string{"fleet analysis", "IEI within 60 min", "1-step resizes", "histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestWaitDigestTable(t *testing.T) {
	d := fleet.NewWaitDigest(resource.CPU, 0)
	for _, o := range []struct{ util, ms, pct float64 }{
		{0.1, 10, 0.1}, {0.1, 20, 0.2}, {0.1, 30, 0.1},
		{0.9, 1000, 0.7}, {0.9, 2000, 0.8}, {0.9, 4000, 0.9},
	} {
		d.Observe(o.util, o.ms, o.pct)
	}
	var buf bytes.Buffer
	WaitDigestTable(&buf, d)
	out := buf.String()
	for _, want := range []string{"wait distributions for cpu", "3 samples", "p75", "separation", "%-wait medians"} {
		if !strings.Contains(out, want) {
			t.Errorf("distribution table missing %q:\n%s", want, out)
		}
	}
}

func TestASCIIChart(t *testing.T) {
	ys := make([]float64, 300)
	for i := range ys {
		ys[i] = float64(i % 50)
	}
	var buf bytes.Buffer
	ASCIIChart(&buf, "test chart", ys, 40, 8)
	out := buf.String()
	if !strings.Contains(out, "test chart") || !strings.Contains(out, "#") {
		t.Errorf("chart missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 9 { // title + 8 rows
		t.Errorf("chart has %d lines, want 9", len(lines))
	}
	buf.Reset()
	ASCIIChart(&buf, "empty", nil, 0, 0)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty chart should say so")
	}
	buf.Reset()
	ASCIIChart(&buf, "flat", []float64{5, 5, 5}, 10, 4)
	if !strings.Contains(buf.String(), "#") {
		t.Error("flat chart should still render bars")
	}
}

func TestSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := SeriesCSV(&buf, sampleResult().Series); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "waitpct_lock") {
		t.Errorf("header missing wait columns: %s", lines[0])
	}
	// NaN performance factors export as empty cells.
	r := sampleResult()
	r.Series[0].PerformanceFactor = math.NaN()
	buf.Reset()
	if err := SeriesCSV(&buf, r.Series[:1]); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Error("NaN must not leak into CSV")
	}
}

func TestCDFTable(t *testing.T) {
	cdf := stats.CDF([]float64{5, 10, 20, 40})
	var buf bytes.Buffer
	CDFTable(&buf, "IEI", cdf, []float64{10, 60})
	out := buf.String()
	if !strings.Contains(out, "50.0%") || !strings.Contains(out, "100.0%") {
		t.Errorf("CDF table wrong:\n%s", out)
	}
}

func TestMarkdownComparison(t *testing.T) {
	comp := sim.Comparison{GoalMs: 130, Results: []sim.Result{
		{Policy: "Max", P95Ms: 100, AvgMs: 30, AvgCostPerInterval: 270},
		{Policy: "Auto", P95Ms: 110, AvgMs: 40, AvgCostPerInterval: 30},
		{Policy: "Avg", P95Ms: 500, AvgMs: 200, AvgCostPerInterval: 15},
	}}
	var buf bytes.Buffer
	MarkdownComparison(&buf, "Figure 10", comp)
	out := buf.String()
	for _, want := range []string{"## Figure 10", "| policy |", "| Max | 100.0", "✗", "Max 9.00×"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestNodeTable(t *testing.T) {
	res := sim.MultiTenantResult{
		Migrations:          4,
		RebalanceMigrations: 2,
		Refusals:            1,
		PeakClusterCPUFrac:  0.85,
		PeakWaitInflation:   1.75,
		Nodes: []sim.NodeStats{
			{
				Node: 0, Tenants: 3,
				Utilization: resource.Vector{0.85, 0.40, 0.10, 0.25},
				Pressure:    fabric.Pressure{1.20, 0.50, 0.90},
				Inflation:   fabric.Inflation{1.30, 1, 1},
			},
			{Node: 1, Tenants: 0, Inflation: fabric.NoInflation()},
		},
	}
	var buf bytes.Buffer
	NodeTable(&buf, "contended cluster", res)
	out := buf.String()
	for _, want := range []string{
		"node utilization: contended cluster",
		"buffer-pool", "log-device", "cpu-cache",
		"85.0%", "1.20", "1.30x",
		"4 migration(s) (2 by rebalancer)", "1 refusal(s)",
		"peak wait inflation 1.75x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("node table missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 5 {
		t.Errorf("node table has %d lines, want 5:\n%s", lines, out)
	}
}

func TestNodeTableNoContentionStamp(t *testing.T) {
	// Runs predating the contention stamp carry PeakWaitInflation 0; the
	// summary line must omit the inflation figure rather than print 0.00x.
	res := sim.MultiTenantResult{Nodes: []sim.NodeStats{{Node: 0}}}
	var buf bytes.Buffer
	NodeTable(&buf, "legacy", res)
	if strings.Contains(buf.String(), "peak wait inflation") {
		t.Errorf("zero-stamp run printed an inflation figure:\n%s", buf.String())
	}
}
