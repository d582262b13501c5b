package telemetry

import (
	"math"
	"testing"

	"daasscale/internal/resource"
)

func TestWaitClassStrings(t *testing.T) {
	want := map[WaitClass]string{
		WaitCPU: "cpu", WaitMemory: "memory", WaitDiskIO: "diskio",
		WaitLogIO: "logio", WaitLock: "lock", WaitLatch: "latch", WaitSystem: "system",
	}
	for c, s := range want {
		if got := c.String(); got != s {
			t.Errorf("%d.String() = %q, want %q", c, got, s)
		}
	}
	if got := WaitClass(42).String(); got != "waitclass(42)" {
		t.Errorf("unknown class = %q", got)
	}
}

func TestWaitClassResourceMapping(t *testing.T) {
	want := map[resource.Kind]WaitClass{
		resource.CPU: WaitCPU, resource.Memory: WaitMemory,
		resource.DiskIO: WaitDiskIO, resource.LogIO: WaitLogIO,
	}
	for _, k := range resource.Kinds {
		if got := WaitClassFor(k); got != want[k] {
			t.Errorf("WaitClassFor(%v) = %v, want %v", k, got, want[k])
		}
	}
}

func TestWaitClassForPanicsOnBadKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	WaitClassFor(resource.Kind(99))
}

func TestSnapshotWaitPct(t *testing.T) {
	var s Snapshot
	s.WaitMs[WaitCPU] = 300
	s.WaitMs[WaitLock] = 700
	if got := s.TotalWaitMs(); got != 1000 {
		t.Errorf("total = %v", got)
	}
	if got := s.WaitPct(WaitLock); got != 0.7 {
		t.Errorf("lock pct = %v", got)
	}
	empty := Snapshot{}
	if got := empty.WaitPct(WaitCPU); got != 0 {
		t.Errorf("empty pct = %v", got)
	}
}

// synth builds a snapshot with the given interval, cpu utilization, cpu
// wait, and p95 latency.
func synth(interval int, util, cpuWait, p95 float64) Snapshot {
	var s Snapshot
	s.Interval = interval
	s.Utilization[resource.CPU] = util
	s.WaitMs[WaitCPU] = cpuWait
	s.WaitMs[WaitSystem] = 100
	s.AvgLatencyMs = p95 / 2
	s.P95LatencyMs = p95
	s.OfferedRPS = 100
	s.PhysicalReads = 500
	s.MemoryUsedMB = 1024
	return s
}

func TestManagerNeedsMinimumHistory(t *testing.T) {
	m := NewManager(10)
	if _, ok := m.Signals(); ok {
		t.Error("no history should give no signals")
	}
	m.Observe(synth(0, 0.5, 100, 50))
	m.Observe(synth(1, 0.5, 100, 50))
	if _, ok := m.Signals(); ok {
		t.Error("2 snapshots below minimum")
	}
	m.Observe(synth(2, 0.5, 100, 50))
	if _, ok := m.Signals(); !ok {
		t.Error("3 snapshots should be enough")
	}
}

func TestManagerWindowEviction(t *testing.T) {
	m := NewManager(4)
	for i := 0; i < 10; i++ {
		m.Observe(synth(i, 0.5, 100, 50))
	}
	if len(m.ring) != 4 {
		t.Errorf("window kept %d snapshots, want 4", len(m.ring))
	}
	sig, _ := m.Signals()
	if sig.Current.Interval != 9 {
		t.Errorf("current interval = %d, want 9", sig.Current.Interval)
	}
	if sig.Window != 4 {
		t.Errorf("window = %d", sig.Window)
	}
}

func TestManagerMinimumWindowClamped(t *testing.T) {
	m := NewManager(1)
	if m.window != MinIntervalsForSignals {
		t.Errorf("window = %d, want clamped to %d", m.window, MinIntervalsForSignals)
	}
}

func TestSignalsMedianAggregation(t *testing.T) {
	m := NewManager(5)
	utils := []float64{0.2, 0.9, 0.25, 0.22, 0.24} // one outlier interval
	for i, u := range utils {
		m.Observe(synth(i, u, 1000, 40))
	}
	sig, ok := m.Signals()
	if !ok {
		t.Fatal("no signals")
	}
	got := sig.Resources[resource.CPU].Utilization
	if got > 0.3 {
		t.Errorf("median utilization = %v; outlier should not dominate", got)
	}
	if sig.Latency.P95Ms != 40 {
		t.Errorf("latency p95 median = %v", sig.Latency.P95Ms)
	}
	if sig.OfferedRPS != 100 {
		t.Errorf("offered = %v", sig.OfferedRPS)
	}
}

func TestSignalsDetectTrend(t *testing.T) {
	m := NewManager(8)
	for i := 0; i < 8; i++ {
		// Steadily degrading latency and rising CPU waits.
		m.Observe(synth(i, 0.5+0.05*float64(i), 1000*float64(i+1), 50+20*float64(i)))
	}
	sig, _ := m.Signals()
	if !sig.Latency.Trend.Significant || sig.Latency.Trend.Slope <= 0 {
		t.Errorf("latency trend not detected: %+v", sig.Latency.Trend)
	}
	cs := sig.Resources[resource.CPU]
	if !cs.WaitTrend.Significant || cs.WaitTrend.Slope <= 0 {
		t.Errorf("wait trend not detected: %+v", cs.WaitTrend)
	}
	if !cs.UtilTrend.Significant || cs.UtilTrend.Slope <= 0 {
		t.Errorf("util trend not detected: %+v", cs.UtilTrend)
	}
	// Waits and latency move together: strong positive correlation.
	if cs.WaitLatencyCorr < 0.9 {
		t.Errorf("wait-latency correlation = %v, want strong", cs.WaitLatencyCorr)
	}
}

func TestSignalsNoTrendInFlatData(t *testing.T) {
	m := NewManager(8)
	vals := []float64{50, 52, 49, 51, 50, 48, 52, 50}
	for i, v := range vals {
		m.Observe(synth(i, 0.5, 1000, v))
	}
	sig, _ := m.Signals()
	if sig.Latency.Trend.Significant {
		t.Errorf("flat latency should have no significant trend: %+v", sig.Latency.Trend)
	}
}

func TestSignalsLogicalWaitShares(t *testing.T) {
	m := NewManager(5)
	for i := 0; i < 5; i++ {
		var s Snapshot
		s.Interval = i
		s.WaitMs[WaitLock] = 9000
		s.WaitMs[WaitCPU] = 500
		s.WaitMs[WaitSystem] = 500
		s.P95LatencyMs = 100
		m.Observe(s)
	}
	sig, _ := m.Signals()
	if got := sig.LogicalWaitPct[WaitLock]; math.Abs(got-0.9) > 1e-9 {
		t.Errorf("lock share = %v, want 0.9", got)
	}
	if got := sig.Resources[resource.CPU].WaitPct; math.Abs(got-0.05) > 1e-9 {
		t.Errorf("cpu share = %v, want 0.05", got)
	}
}

func TestSteadySignals(t *testing.T) {
	var s Snapshot
	s.Interval = 7
	s.AvgLatencyMs = 40
	s.P95LatencyMs = 90
	s.OfferedRPS = 120
	s.MemoryUsedMB = 2048
	s.PhysicalReads = 333
	s.WaitMs[WaitCPU] = 600
	s.WaitMs[WaitLock] = 400
	s.Utilization[0] = 0.5

	sig := SteadySignals(s)
	if sig.Current.Interval != 7 {
		t.Errorf("current snapshot not carried: %+v", sig.Current)
	}
	if sig.Latency.P95Ms != 90 || sig.Latency.PrevP95Ms != 90 || sig.Latency.AvgMs != 40 {
		t.Errorf("latency signals: %+v", sig.Latency)
	}
	if sig.Resources[0].Utilization != 0.5 || sig.Resources[0].PrevUtilization != 0.5 {
		t.Errorf("resource signals: %+v", sig.Resources[0])
	}
	if sig.Resources[0].WaitMs != 600 || sig.Resources[0].WaitPct != 0.6 {
		t.Errorf("wait signals: %+v", sig.Resources[0])
	}
	if sig.LogicalWaitPct[WaitLock] != 0.4 {
		t.Errorf("lock share = %v", sig.LogicalWaitPct[WaitLock])
	}
	if sig.Latency.Trend.Significant {
		t.Error("steady signals must have no significant trend")
	}
	if sig.MemoryUsedMB != 2048 || sig.PhysicalReadsMedian != 333 || sig.OfferedRPS != 120 {
		t.Errorf("scalar fields: %+v", sig)
	}
}
