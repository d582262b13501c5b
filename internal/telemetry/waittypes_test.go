package telemetry

import (
	"math"
	"testing"
	"testing/quick"
)

// splitClassWaits collects VisitClassWaits' split into a map.
func splitClassWaits(class WaitClass, totalMs float64) map[WaitType]float64 {
	out := map[WaitType]float64{}
	VisitClassWaits(class, totalMs, func(t WaitType, ms float64) { out[t] += ms })
	return out
}

func TestCatalogTypesClassifyToTheirClass(t *testing.T) {
	for _, class := range WaitClasses {
		for _, wt := range classCatalog(class) {
			if got := ClassifyWaitType(wt); got != class {
				t.Errorf("%s classified as %v, want %v", wt, got, class)
			}
		}
	}
}

func TestPrefixRules(t *testing.T) {
	cases := map[WaitType]WaitClass{
		"LCK_M_RIn_NL":         WaitLock, // not in the catalog; prefix rule
		"PAGEIOLATCH_DT":       WaitDiskIO,
		"PAGELATCH_KP":         WaitLatch,
		"LATCH_DT":             WaitLatch,
		"LOGMGR_QUEUE":         WaitLogIO,
		"RESOURCE_SEMAPHORE_X": WaitMemory,
		"SOS_WORK_DISPATCHER":  WaitCPU,
		"CXCONSUMER":           WaitCPU,
		"SOME_FUTURE_WAIT":     WaitSystem, // unknown → system, never demand
		"":                     WaitSystem,
	}
	for wt, want := range cases {
		if got := ClassifyWaitType(wt); got != want {
			t.Errorf("%q → %v, want %v", wt, got, want)
		}
	}
}

func TestClassifyCaseInsensitive(t *testing.T) {
	if got := ClassifyWaitType("lck_m_x"); got != WaitLock {
		t.Errorf("lowercase lock type → %v", got)
	}
}

func TestAggregateWaitTypes(t *testing.T) {
	byType := map[WaitType]float64{
		"LCK_M_X":             700,
		"LCK_M_S":             200,
		"PAGEIOLATCH_SH":      50,
		"WRITELOG":            30,
		"SOS_SCHEDULER_YIELD": 15,
		"UNKNOWN_THING":       5,
	}
	got := AggregateWaitTypes(byType)
	if got[WaitLock] != 900 {
		t.Errorf("lock = %v", got[WaitLock])
	}
	if got[WaitDiskIO] != 50 || got[WaitLogIO] != 30 || got[WaitCPU] != 15 || got[WaitSystem] != 5 {
		t.Errorf("aggregation wrong: %v", got)
	}
}

func TestSplitRoundTripsThroughAggregate(t *testing.T) {
	// Property: splitting a class total into types and aggregating back
	// must conserve the total within float error, entirely in that class.
	f := func(raw float64, classIdx uint8) bool {
		total := math.Abs(math.Mod(raw, 1e7))
		class := WaitClasses[int(classIdx)%NumWaitClasses]
		split := splitClassWaits(class, total)
		agg := AggregateWaitTypes(split)
		for _, c := range WaitClasses {
			if c == class {
				if math.Abs(agg[c]-total) > 1e-6*(1+total) {
					return false
				}
			} else if agg[c] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitShapes(t *testing.T) {
	split := splitClassWaits(WaitLock, 1000)
	if len(split) != len(classCatalog(WaitLock)) {
		t.Fatalf("split has %d types", len(split))
	}
	// The first catalog type carries the largest share.
	if split["LCK_M_S"] <= split["LCK_M_X"] {
		t.Errorf("shares not decaying: %v", split)
	}
	if got := splitClassWaits(WaitLock, 0); len(got) != 0 {
		t.Errorf("zero total should split to nothing: %v", got)
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

func TestObserveRaw(t *testing.T) {
	m := NewManager(5)
	for i := 0; i < 4; i++ {
		var s Snapshot
		s.Interval = i
		s.P95LatencyMs = 50
		m.ObserveRaw(s, map[WaitType]float64{
			"LCK_M_X":        900,
			"PAGEIOLATCH_SH": 100,
		})
	}
	sig, ok := m.Signals()
	if !ok {
		t.Fatal("no signals")
	}
	if got := sig.LogicalWaitPct[WaitLock]; got != 0.9 {
		t.Errorf("lock share from raw telemetry = %v, want 0.9", got)
	}
	if got := sig.Current.WaitMs[WaitDiskIO]; got != 100 {
		t.Errorf("disk waits from raw telemetry = %v, want 100", got)
	}
}
