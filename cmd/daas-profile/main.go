// Command daas-profile is the cluster hot-path profiling harness: it runs
// a synthetic multi-tenant cluster (1000 tenants by default) and writes CPU
// and heap pprof profiles for it. The cluster runner labels its phases
// (`phase=ticks+decide`, `phase=apply`, `phase=finalize`) via runtime/pprof
// when -labels is on, so `go tool pprof -tagfocus` can attribute samples to
// the parallel tick/decide fan-out, the serial fabric-apply section and the
// parallel run-level finalisation. The tag value is a regular expression:
// focus the first phase with `-tagfocus 'phase=ticks\+decide'`.
//
// Typical use (the `make profile` target):
//
//	go run ./cmd/daas-profile -tenants 1000 -intervals 12 -workers 8 \
//	    -cpuprofile cpu.pprof -memprofile heap.pprof
//	go tool pprof -top cpu.pprof
//	go tool pprof -top -tagfocus phase=apply cpu.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"daasscale/internal/sim"
	"daasscale/internal/trace"
	"daasscale/internal/workload"
)

func main() {
	var (
		tenants    = flag.Int("tenants", 1000, "number of tenants in the cluster")
		intervals  = flag.Int("intervals", 12, "billing intervals per tenant trace")
		workers    = flag.Int("workers", 8, "worker-pool width (results are identical at any value)")
		seed       = flag.Int64("seed", 42, "cluster base seed")
		labels     = flag.Bool("labels", true, "label cluster phases with runtime/pprof labels")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	spec := sim.MultiTenantSpec{Servers: (*tenants + 1) / 2, Seed: *seed}
	for i := 0; i < *tenants; i++ {
		spec.Tenants = append(spec.Tenants, sim.TenantSpec{
			ID:       fmt.Sprintf("tenant-%04d", i),
			Workload: profileWorkload(i),
			Trace:    profileTrace(i, *intervals, *seed),
			GoalMs:   100,
		})
	}

	opts := []sim.Option{sim.WithParallelism(*workers)}
	if *labels {
		opts = append(opts, sim.WithPhaseLabels())
	}
	runner := sim.NewRunner(opts...)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	res, err := runner.RunMultiTenant(context.Background(), spec)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		f.Close()
	}

	// Guard the rate against a sub-resolution elapsed (tiny runs on a
	// coarse clock): report 0 rather than +Inf/NaN.
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(*tenants**intervals) / s
	}
	fmt.Printf("cluster: %d tenants x %d intervals, %d workers: %s (%.0f tenant-intervals/s)\n",
		*tenants, *intervals, *workers, elapsed.Round(time.Millisecond), rate)
	fmt.Printf("  migrations %d, refusals %d, peak cluster CPU %.2f\n",
		res.Migrations, res.Refusals, res.PeakClusterCPUFrac)
}

// profileWorkload cycles the three standard workloads across the fleet.
func profileWorkload(i int) *workload.Workload {
	switch i % 3 {
	case 1:
		return workload.TPCC()
	case 2:
		return workload.CPUIO(workload.DefaultCPUIOConfig())
	default:
		return workload.DS2()
	}
}

// profileTrace cycles the four standard load shapes, seeded per tenant.
func profileTrace(i, minutes int, seed int64) *trace.Trace {
	s := seed + int64(i)
	switch i % 4 {
	case 1:
		return trace.Trace2(minutes, s)
	case 2:
		return trace.Trace3(minutes, s)
	case 3:
		return trace.Trace4(minutes, s)
	default:
		return trace.Trace1(minutes, s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "daas-profile:", err)
	os.Exit(1)
}
