// Package telemetry defines the production telemetry a DaaS collects for
// each tenant container and the telemetry manager that transforms raw
// counters into the robust signals used for demand estimation (Section 3 of
// the paper): robust aggregates of latency, utilization and wait statistics,
// plus derived signals — Theil–Sen trends and Spearman correlations.
package telemetry

import (
	"fmt"

	"daasscale/internal/resource"
)

// WaitClass is a broad class of waits a tenant's requests can incur inside
// the database server. The paper maps SQL Server's 300+ wait types onto this
// set of key physical and logical resources (Section 3.1); the simulated
// engine accounts its waits in these classes directly.
type WaitClass int

// The wait classes tracked per billing interval. The first four correspond
// one-to-one with the physical resource dimensions of a container; Lock,
// Latch and System are logical waits no container resize can remove.
const (
	WaitCPU WaitClass = iota
	WaitMemory
	WaitDiskIO
	WaitLogIO
	WaitLock
	WaitLatch
	WaitSystem
	numWaitClasses
)

// NumWaitClasses is the number of wait classes.
const NumWaitClasses = int(numWaitClasses)

// WaitClasses lists every wait class in canonical order.
var WaitClasses = [...]WaitClass{WaitCPU, WaitMemory, WaitDiskIO, WaitLogIO, WaitLock, WaitLatch, WaitSystem}

// String returns the conventional name of the wait class.
func (c WaitClass) String() string {
	switch c {
	case WaitCPU:
		return "cpu"
	case WaitMemory:
		return "memory"
	case WaitDiskIO:
		return "diskio"
	case WaitLogIO:
		return "logio"
	case WaitLock:
		return "lock"
	case WaitLatch:
		return "latch"
	case WaitSystem:
		return "system"
	default:
		return fmt.Sprintf("waitclass(%d)", int(c))
	}
}

// WaitClassFor returns the wait class attributed to a physical resource.
func WaitClassFor(k resource.Kind) WaitClass {
	switch k {
	case resource.CPU:
		return WaitCPU
	case resource.Memory:
		return WaitMemory
	case resource.DiskIO:
		return WaitDiskIO
	case resource.LogIO:
		return WaitLogIO
	default:
		panic(fmt.Sprintf("telemetry: no wait class for kind %v", k))
	}
}

// Snapshot is the telemetry collected for one tenant over one billing
// interval: the raw material for demand estimation.
type Snapshot struct {
	// Interval is the billing-interval index since the start of the run.
	Interval int
	// Container is the SKU name of the container during the interval.
	Container string
	// Step is the container's ladder step.
	Step int
	// Cost is the monetary cost charged for the interval.
	Cost float64
	// Utilization is the fraction (0..1) of each physical resource
	// allocation the workload consumed, aggregated over the interval.
	Utilization resource.Vector
	// UtilizationPeak is the maximum per-tick utilization within the
	// interval — what a provisioner must cover to avoid within-interval
	// queueing.
	UtilizationPeak resource.Vector
	// WaitMs is the total time (ms) requests spent waiting, per wait class.
	// Many requests wait concurrently, so per-interval totals can be far
	// larger than wall-clock interval length.
	WaitMs [NumWaitClasses]float64
	// AvgLatencyMs and P95LatencyMs aggregate per-request latency.
	AvgLatencyMs float64
	P95LatencyMs float64
	// Transactions is the number of requests completed.
	Transactions float64
	// OfferedRPS is the average offered load during the interval.
	OfferedRPS float64
	// MemoryUsedMB is the memory in use at interval end (caches included).
	MemoryUsedMB float64
	// PhysicalReads and PhysicalWrites count disk I/Os during the interval.
	PhysicalReads  float64
	PhysicalWrites float64
}

// TotalWaitMs sums waits across all classes.
func (s *Snapshot) TotalWaitMs() float64 {
	var t float64
	for _, w := range s.WaitMs {
		t += w
	}
	return t
}

// WaitPct returns the share (0..1) of total waits attributed to class c, or
// 0 when there are no waits at all.
func (s *Snapshot) WaitPct(c WaitClass) float64 {
	t := s.TotalWaitMs()
	if t == 0 {
		return 0
	}
	return s.WaitMs[c] / t
}
