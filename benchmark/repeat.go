package main

import (
	"fmt"
	"io"

	"daasscale/internal/stats"
)

// readBound is the share by which read_p50_ms and read_tail_ms on
// serve_paced may get worse: what BENCHMARK.json allows the write
// latencies. The file has no place for it: its end-to-end metrics must be
// measured on every workload, three of which never read, so it lists the
// two with the per-layer metrics, which carry no bound.
const readBound = 0.25

// repeatSuite runs the whole suite n times, untraced, and prints, per
// workload and end-to-end metric, the median, the quartiles and the
// inter-quartile spread as a share of the metric's bound. A spread above
// half the bound means the metric cannot yet judge a change of that size.
func repeatSuite(cfg *config, c *contract, n int, stdout io.Writer) error {
	sub := *cfg
	sub.trace = false
	values := map[string]map[string][]float64{} // workload -> metric -> one value per suite
	for i := 0; i < n; i++ {
		fmt.Fprintf(stdout, "# suite %d of %d\n", i+1, n)
		lines, err := suite(&sub, io.Discard)
		if err != nil {
			return err
		}
		for wl, l := range lines {
			if !l.Correct {
				return fmt.Errorf("%s: output checks failed in suite %d", wl, i+1)
			}
			if values[wl] == nil {
				values[wl] = map[string][]float64{}
			}
			for name, item := range l.Metrics {
				values[wl][name] = append(values[wl][name], item.Value)
			}
		}
	}
	bounded := append([]contractMetric(nil), c.EndToEnd...)
	for _, name := range []string{"read_p50_ms", "read_tail_ms"} {
		bounded = append(bounded, contractMetric{Name: name, Bound: readBound})
	}
	fmt.Fprintf(stdout, "%-18s %-20s %12s %12s %12s %8s %8s %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "spread/bound")
	for _, wl := range workloads {
		for _, b := range bounded {
			xs := values[wl][b.Name]
			if len(xs) == 0 { // the read latencies, where nothing reads
				continue
			}
			med := stats.Median(xs)
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			fmt.Fprintf(stdout, "%-18s %-20s %12.4f %12.4f %12.4f %7.2f%% %7.0f%% %.2f\n",
				wl, b.Name, med, q1, q3, 100*spread, 100*b.Bound, spread/b.Bound)
		}
	}
	return nil
}
