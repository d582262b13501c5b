// Lockbound: the Figure 13 story. A TPC-C-like workload whose latency is
// dominated by application-level lock contention misses its latency goal
// during bursts — and no container size can fix that. The utilization-only
// autoscaler (Util) cannot tell lock waits from resource pressure, so it
// keeps throwing hardware at the problem; the demand-driven auto-scaler
// (Auto) reads the wait statistics, recognizes a bottleneck beyond
// resources, and holds.
//
// Run with:
//
//	go run ./examples/lockbound
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"daasscale/internal/report"
	"daasscale/internal/sim"
	"daasscale/internal/telemetry"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

func main() {
	log.SetFlags(0)

	comp, err := sim.NewRunner().RunComparison(context.Background(), sim.ComparisonSpec{
		Workload:   workload.TPCC(),
		Trace:      trace.Trace4(720, 4),
		GoalFactor: 1.25,
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	report.ComparisonTable(os.Stdout, "TPC-C × spiky trace (lock-bound)", comp)

	util := comp.MustByPolicy("Util")
	auto := comp.MustByPolicy("Auto")

	fmt.Println("\ncontainer CPU as % of the server, over time (Figure 13(a)/(b)):")
	for _, r := range []sim.Result{util, auto} {
		frac := make([]float64, len(r.Series))
		for i, pt := range r.Series {
			frac[i] = pt.ContainerCPUFrac * 100
		}
		report.ASCIIChart(os.Stdout, "  "+r.Policy, frac, 72, 7)
	}

	fmt.Println("\nwhy (Figure 13(c)): the wait mix during the busiest interval of each run")
	for _, r := range []sim.Result{util, auto} {
		busiest := 0
		for i, pt := range r.Series {
			if pt.OfferedRPS > r.Series[busiest].OfferedRPS {
				busiest = i
			}
		}
		pt := r.Series[busiest]
		var parts []string
		for _, wc := range telemetry.WaitClasses {
			if share := pt.WaitPct[wc]; share > 0.01 {
				parts = append(parts, fmt.Sprintf("%v %.0f%%", wc, share*100))
			}
		}
		fmt.Printf("  %-5s minute %4d (%.0f rps): %s\n", r.Policy, pt.Interval, pt.OfferedRPS, strings.Join(parts, ", "))
	}

	fmt.Printf("\nconclusion: Util paid %.1fx Auto's cost for the same lock-bound latency.\n",
		util.AvgCostPerInterval/auto.AvgCostPerInterval)
}
