// Ballooning: the Figure 14 experiment. Low memory demand cannot be read
// off utilization or waits — caches never volunteer memory back. The paper's
// answer is a ballooning probe: shrink memory gradually and watch disk I/O.
// This example runs both arms: the naive scale-down that evicts the working
// set (latency up two orders of magnitude, slow recovery while the cache
// re-warms at disk speed) and the probe that aborts right at the working
// set with no visible damage.
//
// Run with:
//
//	go run ./examples/ballooning
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"daasscale/internal/report"
	"daasscale/internal/sim"
)

func main() {
	log.SetFlags(0)

	res, err := sim.NewRunner().RunBallooning(context.Background(), sim.BallooningSpec{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: CPUIO with a %.0f MB working set in a 4GB container; the next smaller container has 2GB\n\n",
		res.WorkingSetMB)

	for _, arm := range []sim.BallooningArm{res.Without, res.With} {
		mem := make([]float64, len(arm.Series))
		lat := make([]float64, len(arm.Series))
		for i, pt := range arm.Series {
			mem[i] = pt.MemoryUsedMB
			lat[i] = pt.AvgMs
		}
		report.ASCIIChart(os.Stdout, arm.Name+" — memory used (MB)", mem, 72, 7)
		report.ASCIIChart(os.Stdout, arm.Name+" — average latency (ms)", lat, 72, 7)
		fmt.Printf("%s: shrink at interval %d, reverted at %d; baseline %.1f ms, peak %.1f ms, min memory %.0f MB\n\n",
			arm.Name, arm.ShrunkAt, arm.RevertedAt, arm.BaselineAvgMs(), arm.PeakAvgMs(), arm.MinMemoryMB())
	}

	fmt.Printf("latency damage: naive %.0fx baseline vs probe %.1fx baseline\n",
		res.Without.PeakAvgMs()/res.Without.BaselineAvgMs(),
		res.With.PeakAvgMs()/res.With.BaselineAvgMs())
}
