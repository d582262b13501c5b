package engine

import (
	"math"
	"testing"

	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

var cat = resource.LockStepCatalog()

func mustEngine(t *testing.T, w *workload.Workload, cont resource.Container, seed int64) *Engine {
	t.Helper()
	// Telemetry noise off: these tests assert exact wait behaviour.
	e, err := New(w, cont, seed, Options{NoiseProb: -1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runIntervals drives the engine at a constant offered load and returns the
// snapshots.
func runIntervals(e *Engine, rps float64, intervals int) []telemetry.Snapshot {
	var out []telemetry.Snapshot
	for i := 0; i < intervals; i++ {
		for t := 0; t < e.TicksPerInterval(); t++ {
			e.Tick(rps)
		}
		out = append(out, e.EndInterval())
	}
	return out
}

func TestNewRejectsInvalidWorkload(t *testing.T) {
	if _, err := New(&workload.Workload{Name: "bad"}, cat.Smallest(), 1, Options{}); err == nil {
		t.Error("invalid workload should be rejected")
	}
}

func TestIdleEngine(t *testing.T) {
	e := mustEngine(t, workload.CPUIO(workload.DefaultCPUIOConfig()), cat.AtStep(4), 1)
	snaps := runIntervals(e, 0, 3)
	for _, s := range snaps {
		if s.Utilization[resource.CPU] != 0 || s.Utilization[resource.DiskIO] != 0 {
			t.Errorf("idle utilization nonzero: %+v", s.Utilization)
		}
		if s.Transactions != 0 {
			t.Errorf("idle transactions = %v", s.Transactions)
		}
		if s.WaitMs[telemetry.WaitCPU] != 0 || s.WaitMs[telemetry.WaitLock] != 0 {
			t.Errorf("idle waits nonzero: %+v", s.WaitMs)
		}
		if s.WaitMs[telemetry.WaitSystem] <= 0 {
			t.Error("system waits should tick over even when idle")
		}
	}
}

func TestSnapshotIntervalBookkeeping(t *testing.T) {
	e := mustEngine(t, workload.DS2(), cat.AtStep(5), 2)
	s0 := runIntervals(e, 50, 1)[0]
	if s0.Interval != 0 {
		t.Errorf("first interval index = %d", s0.Interval)
	}
	if s0.Container != "C5" || s0.Step != 5 || s0.Cost != 90 {
		t.Errorf("container metadata wrong: %+v", s0)
	}
	if s0.Transactions != 50*60 {
		t.Errorf("transactions = %v, want 3000", s0.Transactions)
	}
	if math.Abs(s0.OfferedRPS-50) > 5 {
		t.Errorf("offered rps = %v, want ≈50", s0.OfferedRPS)
	}
	s1 := runIntervals(e, 50, 1)[0]
	if s1.Interval != 1 {
		t.Errorf("second interval index = %d", s1.Interval)
	}
}

func TestUtilizationBounds(t *testing.T) {
	// Even under extreme overload, utilization must stay in [0,1].
	e := mustEngine(t, workload.CPUIO(workload.DefaultCPUIOConfig()), cat.Smallest(), 3)
	for _, s := range runIntervals(e, 500, 5) {
		for _, k := range resource.Kinds {
			u := s.Utilization[k]
			if u < 0 || u > 1+1e-9 {
				t.Fatalf("utilization[%v] = %v out of bounds", k, u)
			}
		}
	}
}

func TestOverloadSaturatesAndWaits(t *testing.T) {
	// CPU-heavy workload on the smallest container: CPU saturates, CPU
	// waits accrue, latency blows past the big-container baseline.
	cpuOnly := workload.CPUIO(workload.CPUIOConfig{CPUWeight: 1, WorkingSetMB: 512, HotspotFraction: 0.95})
	small := mustEngine(t, cpuOnly, cat.Smallest(), 4)
	big := mustEngine(t, cpuOnly, cat.Largest(), 4)
	// 200 rps × 9ms CPU ≈ 1.8 cores of demand: swamps C0 (0.5 core).
	sSmall := runIntervals(small, 200, 5)
	sBig := runIntervals(big, 200, 5)
	last := sSmall[len(sSmall)-1]
	if last.Utilization[resource.CPU] < 0.95 {
		t.Errorf("small-container CPU utilization = %v, want ≈1", last.Utilization[resource.CPU])
	}
	if last.WaitMs[telemetry.WaitCPU] < 100000 {
		t.Errorf("small-container CPU waits = %v, want large", last.WaitMs[telemetry.WaitCPU])
	}
	bigLast := sBig[len(sBig)-1]
	if bigLast.Utilization[resource.CPU] > 0.2 {
		t.Errorf("big-container CPU utilization = %v, want small", bigLast.Utilization[resource.CPU])
	}
	if last.P95LatencyMs < 5*bigLast.P95LatencyMs {
		t.Errorf("overloaded p95 %v should dwarf big-container p95 %v", last.P95LatencyMs, bigLast.P95LatencyMs)
	}
	if bigLast.WaitMs[telemetry.WaitCPU] > last.WaitMs[telemetry.WaitCPU]/100 {
		t.Errorf("big-container CPU waits %v should be tiny vs %v", bigLast.WaitMs[telemetry.WaitCPU], last.WaitMs[telemetry.WaitCPU])
	}
}

func TestHighUtilizationWithoutDemandHasLowWaits(t *testing.T) {
	// The paper's central observation: utilization near the allocation does
	// NOT imply waits when the queue is stable. Load the container to
	// ≈85% CPU: utilization is HIGH but waits stay near zero.
	cpuOnly := workload.CPUIO(workload.CPUIOConfig{CPUWeight: 1, WorkingSetMB: 512, HotspotFraction: 0.95})
	e := mustEngine(t, cpuOnly, cat.AtStep(2), 5) // 2 cores
	// 9ms CPU/txn (+ tiny I/O CPU) → ≈185 rps ≈ 85% of 2000 core-ms.
	snaps := runIntervals(e, 185, 5)
	last := snaps[len(snaps)-1]
	u := last.Utilization[resource.CPU]
	if u < 0.7 || u > 0.98 {
		t.Fatalf("CPU utilization = %v, want high but stable", u)
	}
	// Waits per interval should be far below the overloaded case: the queue
	// drains every tick.
	if last.WaitMs[telemetry.WaitCPU] > 50000 {
		t.Errorf("waits at stable high utilization = %v, want modest", last.WaitMs[telemetry.WaitCPU])
	}
}

func TestLockWaitsIndependentOfContainer(t *testing.T) {
	// TPC-C at high concurrency: lock waits dominate and a bigger container
	// does not reduce latency much (Figure 13's mechanism).
	small := mustEngine(t, workload.TPCC(), cat.AtStep(5), 6)
	big := mustEngine(t, workload.TPCC(), cat.Largest(), 6)
	sSmall := runIntervals(small, 150, 8)
	sBig := runIntervals(big, 150, 8)
	lsSmall := sSmall[len(sSmall)-1]
	lsBig := sBig[len(sBig)-1]
	// Lock waits are the dominant wait class on the big container (>60%:
	// nothing else should be waiting there).
	if pct := lsBig.WaitPct(telemetry.WaitLock); pct < 0.6 {
		t.Errorf("big-container lock wait share = %v, want dominant", pct)
	}
	// Lock wait magnitude is container-independent.
	ratio := lsSmall.WaitMs[telemetry.WaitLock] / lsBig.WaitMs[telemetry.WaitLock]
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("lock waits should not depend on container size: ratio %v", ratio)
	}
	// Latency gains from the much bigger container are limited (less than
	// 2×) because the bottleneck is locks, provided the small container
	// already covers resource demand.
	if lsSmall.P95LatencyMs > 2*lsBig.P95LatencyMs {
		t.Errorf("lock-bound latency should not collapse with container size: %v vs %v",
			lsSmall.P95LatencyMs, lsBig.P95LatencyMs)
	}
}

func TestLockWaitsGrowWithLoad(t *testing.T) {
	e1 := mustEngine(t, workload.TPCC(), cat.Largest(), 7)
	e2 := mustEngine(t, workload.TPCC(), cat.Largest(), 7)
	low := runIntervals(e1, 30, 4)[3]
	high := runIntervals(e2, 200, 4)[3]
	perTxnLow := low.WaitMs[telemetry.WaitLock] / low.Transactions
	perTxnHigh := high.WaitMs[telemetry.WaitLock] / high.Transactions
	if perTxnHigh < 3*perTxnLow {
		t.Errorf("per-txn lock waits should grow superlinearly with load: %v → %v", perTxnLow, perTxnHigh)
	}
}

func TestBufferPoolWarming(t *testing.T) {
	w := workload.CPUIO(workload.CPUIOConfig{CPUWeight: 0.2, IOWeight: 1, WorkingSetMB: 2048, HotspotFraction: 0.95})
	e := mustEngine(t, w, cat.AtStep(4), 8) // 8GB memory
	snaps := runIntervals(e, 60, 30)
	first, last := snaps[0], snaps[len(snaps)-1]
	if last.MemoryUsedMB <= first.MemoryUsedMB {
		t.Errorf("cache should warm: %v → %v", first.MemoryUsedMB, last.MemoryUsedMB)
	}
	if last.MemoryUsedMB < w.WorkingSetMB {
		t.Errorf("cache should reach the working set: %v < %v", last.MemoryUsedMB, w.WorkingSetMB)
	}
	// Physical reads drop as the hot set becomes cached.
	if last.PhysicalReads > first.PhysicalReads/2 {
		t.Errorf("physical reads should fall as cache warms: %v → %v", first.PhysicalReads, last.PhysicalReads)
	}
	// Memory never exceeds the allocation.
	for _, s := range snaps {
		if s.MemoryUsedMB > cat.AtStep(4).Alloc[resource.Memory]+1e-9 {
			t.Fatalf("memory used %v exceeds allocation", s.MemoryUsedMB)
		}
	}
}

func TestMemoryShrinkCausesIOAndLatencySpike(t *testing.T) {
	// Figure 14 without ballooning: dropping memory below the working set
	// evicts cache, physical I/O jumps, latency rises sharply.
	w := workload.CPUIO(workload.CPUIOConfig{CPUWeight: 1, IOWeight: 1, WorkingSetMB: 3 * 1024, HotspotFraction: 0.97})
	e := mustEngine(t, w, cat.AtStep(3), 9) // 6GB: fits the 3GB working set
	warm := runIntervals(e, 60, 30)
	warmLast := warm[len(warm)-1]
	if warmLast.MemoryUsedMB < 3*1024*0.95 {
		t.Fatalf("not warm: %v MB", warmLast.MemoryUsedMB)
	}
	// Shrink to C1: 2GB < working set.
	e.SetContainer(cat.AtStep(1))
	after := runIntervals(e, 60, 3)
	shrunk := after[0]
	if shrunk.MemoryUsedMB > cat.AtStep(1).Alloc[resource.Memory] {
		t.Errorf("memory not evicted: %v", shrunk.MemoryUsedMB)
	}
	if shrunk.PhysicalReads < 5*warmLast.PhysicalReads {
		t.Errorf("physical reads should spike after eviction: %v vs %v", shrunk.PhysicalReads, warmLast.PhysicalReads)
	}
	if after[1].P95LatencyMs < 3*warmLast.P95LatencyMs {
		t.Errorf("latency should spike after eviction: %v vs %v", after[1].P95LatencyMs, warmLast.P95LatencyMs)
	}
	if after[1].WaitMs[telemetry.WaitMemory] < 10*warmLast.WaitMs[telemetry.WaitMemory]+1 {
		t.Errorf("memory waits should spike after eviction: %v vs %v",
			after[1].WaitMs[telemetry.WaitMemory], warmLast.WaitMs[telemetry.WaitMemory])
	}
}

func TestBallooningTargetClampsMemory(t *testing.T) {
	w := workload.CPUIO(workload.CPUIOConfig{CPUWeight: 1, IOWeight: 1, WorkingSetMB: 2048, HotspotFraction: 0.95})
	e := mustEngine(t, w, cat.AtStep(3), 10)
	runIntervals(e, 60, 25) // warm up
	if e.usedMB < 2000 {
		t.Fatalf("not warm: %v", e.usedMB)
	}
	e.SetMemoryTargetMB(1500)
	if got := e.MemoryTargetMB(); got != 1500 {
		t.Fatalf("target = %v", got)
	}
	runIntervals(e, 60, 1)
	if e.usedMB > 1500 {
		t.Errorf("balloon target not enforced: used %v", e.usedMB)
	}
	// Removing the target lets the cache grow back.
	e.SetMemoryTargetMB(0)
	runIntervals(e, 60, 25)
	if e.usedMB < 1900 {
		t.Errorf("cache should re-warm after balloon release: %v", e.usedMB)
	}
}

func TestBallooningAboveWorkingSetIsHarmless(t *testing.T) {
	// Ballooning down to (but not below) the working set must not raise IO
	// much — the basis for detecting genuinely-low memory demand.
	w := workload.CPUIO(workload.CPUIOConfig{CPUWeight: 1, IOWeight: 1, WorkingSetMB: 1024, HotspotFraction: 1})
	e := mustEngine(t, w, cat.AtStep(3), 11)
	warm := runIntervals(e, 60, 25)
	base := warm[len(warm)-1].PhysicalReads
	e.SetMemoryTargetMB(1100) // still above the 1024MB working set
	after := runIntervals(e, 60, 3)
	if after[2].PhysicalReads > base*1.5 {
		t.Errorf("ballooning above working set raised IO: %v → %v", base, after[2].PhysicalReads)
	}
	e.SetMemoryTargetMB(600) // below the working set
	below := runIntervals(e, 60, 3)
	if below[2].PhysicalReads < base*3 {
		t.Errorf("ballooning below working set should raise IO: %v → %v", base, below[2].PhysicalReads)
	}
}

func TestP95AtLeastAverage(t *testing.T) {
	e := mustEngine(t, workload.DS2(), cat.AtStep(4), 12)
	for _, s := range runIntervals(e, 80, 5) {
		if s.P95LatencyMs < s.AvgLatencyMs {
			t.Errorf("p95 %v below average %v", s.P95LatencyMs, s.AvgLatencyMs)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustEngine(t, workload.TPCC(), cat.AtStep(3), 99)
	b := mustEngine(t, workload.TPCC(), cat.AtStep(3), 99)
	sa := runIntervals(a, 120, 5)
	sb := runIntervals(b, 120, 5)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("interval %d diverged:\n%+v\n%+v", i, sa[i], sb[i])
		}
	}
}

func TestNegativeOfferedTreatedAsZero(t *testing.T) {
	e := mustEngine(t, workload.DS2(), cat.AtStep(2), 13)
	e.Tick(-10)
	s := e.EndInterval()
	if s.Transactions != 0 {
		t.Errorf("negative offered load produced transactions: %v", s.Transactions)
	}
}

func TestQueueSheddingBoundsBacklog(t *testing.T) {
	// Extreme overload for a long time must not let latency grow without
	// bound: the backlog is capped at MaxQueueSeconds.
	e := mustEngine(t, workload.CPUIO(workload.DefaultCPUIOConfig()), cat.Smallest(), 14)
	snaps := runIntervals(e, 1000, 10)
	p95 := snaps[len(snaps)-1].P95LatencyMs
	// Max queue delay is 5s per resource; with three queues plus service
	// and lognormal noise, p95 must stay within a sane bound.
	if p95 > 60000 {
		t.Errorf("p95 = %v ms, backlog cap not effective", p95)
	}
	if snaps[9].P95LatencyMs > snaps[5].P95LatencyMs*2 {
		t.Errorf("latency still growing long after cap should bind: %v vs %v",
			snaps[9].P95LatencyMs, snaps[5].P95LatencyMs)
	}
}

func TestNoiseInjection(t *testing.T) {
	opts := Options{NoiseProb: 0.5, NoiseScale: 100}
	e, err := New(workload.DS2(), cat.AtStep(4), 15, opts)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < 60; t2++ {
		e.Tick(10)
	}
	s := e.EndInterval()
	// With 50% spike probability the system waits must be far above the
	// noiseless 30ms×60 baseline.
	if s.WaitMs[telemetry.WaitSystem] < 30*60*2 {
		t.Errorf("noise injection had no visible effect: system waits %v", s.WaitMs[telemetry.WaitSystem])
	}
}

func TestSetContainerGrowKeepsCache(t *testing.T) {
	e := mustEngine(t, workload.DS2(), cat.AtStep(2), 16)
	runIntervals(e, 60, 20)
	used := e.usedMB
	e.SetContainer(cat.AtStep(6))
	if e.usedMB != used {
		t.Errorf("growing the container should keep the cache: %v → %v", used, e.usedMB)
	}
	if e.Container().Name != "C6" {
		t.Errorf("container = %s", e.Container().Name)
	}
}
