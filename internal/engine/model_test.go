package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

// steadySnapshot runs a fresh engine at a constant load until warm and
// returns the last snapshot.
func steadySnapshot(t *testing.T, w *workload.Workload, step int, rps float64, intervals int) telemetry.Snapshot {
	t.Helper()
	e, err := New(w, cat.AtStep(step), 21, Options{NoiseProb: -1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	var last telemetry.Snapshot
	for i := 0; i < intervals; i++ {
		for k := 0; k < e.TicksPerInterval(); k++ {
			e.Tick(rps)
		}
		last = e.EndInterval()
	}
	return last
}

func TestCongestionLatencyGradient(t *testing.T) {
	// Below saturation the queue drains every tick, yet latency must climb
	// with utilization (the M/M/1-style term): this is what differentiates
	// tight and loose latency goals.
	cpuOnly := workload.CPUIO(workload.CPUIOConfig{CPUWeight: 1, WorkingSetMB: 256, HotspotFraction: 1})
	// C2 = 2000 core-ms/s; 9ms/txn ⇒ ~22 rps per 10% utilization.
	low := steadySnapshot(t, cpuOnly, 2, 60, 4)   // ~28% utilization
	mid := steadySnapshot(t, cpuOnly, 2, 140, 4)  // ~65%
	high := steadySnapshot(t, cpuOnly, 2, 200, 4) // ~92%
	if !(low.AvgLatencyMs < mid.AvgLatencyMs && mid.AvgLatencyMs < high.AvgLatencyMs) {
		t.Errorf("latency should rise with utilization: %.1f, %.1f, %.1f",
			low.AvgLatencyMs, mid.AvgLatencyMs, high.AvgLatencyMs)
	}
	// The gradient must be convex enough to matter: near saturation the
	// penalty is a multiple, not a rounding error.
	if high.AvgLatencyMs < 1.5*low.AvgLatencyMs {
		t.Errorf("congestion penalty too weak: %.1f vs %.1f", high.AvgLatencyMs, low.AvgLatencyMs)
	}
	// But utilization stays below 1 — this is congestion, not backlog.
	if high.Utilization[resource.CPU] >= 1 {
		t.Errorf("test assumption broken: utilization %v saturated", high.Utilization[resource.CPU])
	}
}

func TestLogQueueSaturation(t *testing.T) {
	logHeavy := workload.CPUIO(workload.CPUIOConfig{LogWeight: 1, WorkingSetMB: 256, HotspotFraction: 1})
	// C0 log capacity is 256 KB/s; 24KB per txn ⇒ ≈11 rps saturates, while
	// disk I/O (6 writes/txn vs 100 IOPS) still has headroom.
	s := steadySnapshot(t, logHeavy, 0, 15, 4)
	if s.Utilization[resource.LogIO] < 0.95 {
		t.Errorf("log utilization = %v, want saturated", s.Utilization[resource.LogIO])
	}
	if s.WaitMs[telemetry.WaitLogIO] < 10_000 {
		t.Errorf("log waits = %v, want large", s.WaitMs[telemetry.WaitLogIO])
	}
	if got := s.WaitPct(telemetry.WaitLogIO); got < 0.5 {
		t.Errorf("log wait share = %v, want dominant", got)
	}
}

func TestMemoryUtilizationRarelyLow(t *testing.T) {
	// The paper's observation that motivates ballooning: caches do not
	// release memory, so memory utilization stays high even at light load.
	s := steadySnapshot(t, workload.TPCC(), 1, 20, 20)
	if s.Utilization[resource.Memory] < 0.7 {
		t.Errorf("memory utilization = %v, want high despite light load", s.Utilization[resource.Memory])
	}
}

func TestUtilizationPeakAtLeastAverage(t *testing.T) {
	e, err := New(workload.DS2(), cat.AtStep(3), 5, Options{NoiseProb: -1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < e.TicksPerInterval(); i++ {
		e.Tick(60 * (0.5 + rng.Float64())) // deliberately uneven, sub-saturation load
	}
	s := e.EndInterval()
	for _, k := range []resource.Kind{resource.CPU, resource.DiskIO, resource.LogIO} {
		if s.UtilizationPeak[k] < s.Utilization[k] {
			t.Errorf("%v: peak %v below average %v", k, s.UtilizationPeak[k], s.Utilization[k])
		}
		if s.UtilizationPeak[k] > 1+1e-9 {
			t.Errorf("%v: peak %v above 1", k, s.UtilizationPeak[k])
		}
	}
	// Under uneven sub-saturation load the peak must be strictly above the
	// average (asserted on CPU, which never saturates here).
	if s.UtilizationPeak[resource.CPU] <= s.Utilization[resource.CPU] {
		t.Error("uneven load should produce a strictly higher CPU peak")
	}
}

func TestSheddedWorkAccounting(t *testing.T) {
	e, err := New(workload.CPUIO(workload.DefaultCPUIOConfig()), cat.Smallest(), 7, Options{NoiseProb: -1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if c, i, l := e.sheddedCPUms, e.sheddedIOOps, e.sheddedLogKB; c != 0 || i != 0 || l != 0 {
		t.Fatal("fresh engine should have shed nothing")
	}
	for k := 0; k < 5*e.TicksPerInterval(); k++ {
		e.Tick(2000) // far past C0's capacity in every dimension
	}
	cpuMs, ioOps, logKB := e.sheddedCPUms, e.sheddedIOOps, e.sheddedLogKB
	if cpuMs <= 0 || ioOps <= 0 || logKB <= 0 {
		t.Errorf("sustained overload should shed work on every queue: %v %v %v", cpuMs, ioOps, logKB)
	}
}

func TestPartialIntervalSnapshot(t *testing.T) {
	e, err := New(workload.DS2(), cat.AtStep(4), 8, Options{NoiseProb: -1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Tick(50)
	e.Tick(50)
	s := e.EndInterval()
	if s.Transactions != 100 {
		t.Errorf("partial interval transactions = %v", s.Transactions)
	}
	if s.OfferedRPS != 50 {
		t.Errorf("partial interval offered = %v", s.OfferedRPS)
	}
}

func TestEmptyIntervalSnapshot(t *testing.T) {
	e, err := New(workload.DS2(), cat.AtStep(4), 9, Options{NoiseProb: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := e.EndInterval() // zero ticks
	if s.OfferedRPS != 0 || s.Transactions != 0 {
		t.Errorf("empty interval should be zero: %+v", s)
	}
	if s.AvgLatencyMs != 0 || !math.IsNaN(s.P95LatencyMs) && s.P95LatencyMs != 0 {
		// No samples: both aggregates stay zero.
		if s.AvgLatencyMs != 0 || s.P95LatencyMs != 0 {
			t.Errorf("empty interval latency should be zero: %+v", s)
		}
	}
}

func TestConservationProperty(t *testing.T) {
	// For arbitrary load sequences: utilization stays in [0,1], waits and
	// physical I/O are non-negative, memory respects the allocation.
	f := func(seed int64, loads []uint16) bool {
		w := workload.CPUIO(workload.DefaultCPUIOConfig())
		e, err := New(w, cat.AtStep(int(uint64(seed)%4)), seed, Options{NoiseProb: -1})
		if err != nil {
			return false
		}
		alloc := e.Container().Alloc
		for _, l := range loads {
			e.Tick(float64(l % 2000))
		}
		s := e.EndInterval()
		for _, k := range resource.Kinds {
			if s.Utilization[k] < 0 || s.Utilization[k] > 1+1e-9 {
				return false
			}
		}
		for _, wms := range s.WaitMs {
			if wms < 0 {
				return false
			}
		}
		if s.PhysicalReads < 0 || s.PhysicalWrites < 0 {
			return false
		}
		return s.MemoryUsedMB <= alloc[resource.Memory]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestIntervalLatenciesHoldEverySample(t *testing.T) {
	e, err := New(workload.DS2(), cat.AtStep(4), 10, Options{NoiseProb: -1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < e.TicksPerInterval(); k++ {
		e.Tick(10)
	}
	var sum float64
	for _, ms := range e.IntervalLatencies() {
		sum += ms
	}
	n := len(e.IntervalLatencies())
	s := e.EndInterval()
	if n != e.TicksPerInterval()*10 {
		t.Errorf("interval holds %d samples, want %d", n, e.TicksPerInterval()*10)
	}
	if math.Abs(sum/float64(n)-s.AvgLatencyMs) > 1e-9 {
		t.Errorf("sample mean %v != snapshot mean %v", sum/float64(n), s.AvgLatencyMs)
	}
	if len(e.IntervalLatencies()) != 0 {
		t.Errorf("EndInterval left %d samples behind", len(e.IntervalLatencies()))
	}
}

func TestBallooningTargetAboveAllocHarmless(t *testing.T) {
	e, err := New(workload.DS2(), cat.AtStep(2), 11, Options{NoiseProb: -1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	e.SetMemoryTargetMB(1 << 20) // absurd target above the allocation
	for k := 0; k < e.TicksPerInterval(); k++ {
		e.Tick(50)
	}
	s := e.EndInterval()
	if s.MemoryUsedMB > e.Container().Alloc[resource.Memory] {
		t.Errorf("allocation must cap memory regardless of target: %v", s.MemoryUsedMB)
	}
}

// TestTPCCLockWaitsUnderLoad: lock waits dominate TPC-C at load, so the
// snapshot's lock class carries most of the interval's waits.
func TestTPCCLockWaitsUnderLoad(t *testing.T) {
	e, err := New(workload.TPCC(), cat.AtStep(2), 33, Options{NoiseProb: -1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < e.TicksPerInterval(); k++ {
		e.Tick(150)
	}
	snap := e.EndInterval()
	if share := snap.WaitMs[telemetry.WaitLock] / snap.TotalWaitMs(); !(share > 0.5) {
		t.Errorf("lock-wait share = %v of %v ms, want a majority", share, snap.TotalWaitMs())
	}
}

func TestCheckpointsBurstWrites(t *testing.T) {
	w := workload.DS2()
	run := func(every int) (peak, total float64) {
		e, err := New(w, cat.AtStep(6), 44, Options{NoiseProb: -1, WarmStart: true, CheckpointEverySec: every})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			for k := 0; k < e.TicksPerInterval(); k++ {
				e.Tick(100)
			}
			s := e.EndInterval()
			if i == 2 { // steady interval
				total = s.PhysicalWrites
				peak = s.UtilizationPeak[resource.DiskIO]
			}
		}
		return peak, total
	}
	steadyPeak, steadyTotal := run(0)
	ckptPeak, ckptTotal := run(20)
	// Checkpoints must not change the long-run write volume materially...
	if math.Abs(ckptTotal-steadyTotal) > 0.1*steadyTotal {
		t.Errorf("checkpointing changed write volume: %v vs %v", ckptTotal, steadyTotal)
	}
	// ...but must make the per-tick I/O spikier.
	if ckptPeak <= steadyPeak {
		t.Errorf("checkpoint peak %v should exceed steady peak %v", ckptPeak, steadyPeak)
	}
}
