package telemetry

import "strings"

// The paper (Section 3.1): "Microsoft SQL Server reports wait statistics
// categorized into more than 300 wait types. Each wait type is associated
// to a (logical or physical) resource for which the request waited. Using
// rules, we map the wait times to the resource." This file is that mapping
// layer: a catalog of engine-level wait types in SQL Server's naming style
// and the rules that classify them into the broad classes the demand
// estimator consumes.

// WaitType is an engine-level wait type name (e.g. "PAGEIOLATCH_SH").
type WaitType string

// A representative catalog of engine wait types per class. The real
// engine's list is much longer; the estimator only ever sees the classes,
// so the catalog needs to cover the rule space, not every type.
var (
	cpuWaitTypes    = []WaitType{"SOS_SCHEDULER_YIELD", "SIGNAL_WAIT", "CXPACKET", "THREADPOOL"}
	memoryWaitTypes = []WaitType{"RESOURCE_SEMAPHORE", "CMEMTHREAD", "MEMORY_ALLOCATION_EXT", "RESOURCE_SEMAPHORE_QUERY_COMPILE"}
	diskWaitTypes   = []WaitType{"PAGEIOLATCH_SH", "PAGEIOLATCH_EX", "PAGEIOLATCH_UP", "IO_COMPLETION", "ASYNC_IO_COMPLETION", "BACKUPIO"}
	logWaitTypes    = []WaitType{"WRITELOG", "LOGBUFFER", "LOG_RATE_GOVERNOR"}
	lockWaitTypes   = []WaitType{"LCK_M_S", "LCK_M_X", "LCK_M_U", "LCK_M_IS", "LCK_M_IX", "LCK_M_SCH_M"}
	latchWaitTypes  = []WaitType{"PAGELATCH_SH", "PAGELATCH_EX", "PAGELATCH_UP", "LATCH_SH", "LATCH_EX"}
	systemWaitTypes = []WaitType{"CHECKPOINT_QUEUE", "LAZYWRITER_SLEEP", "DIRTY_PAGE_POLL", "XE_TIMER_EVENT", "HADR_FILESTREAM_IOMGR_IOCOMPLETION", "SLEEP_TASK"}
)

// ClassifyWaitType maps an engine wait type to its broad class using the
// paper's rule style: exact catalog membership first, then prefix rules for
// families of types, with everything unknown attributed to the system class
// (background/unclassified waits never look like resource demand).
func ClassifyWaitType(t WaitType) WaitClass {
	name := strings.ToUpper(string(t))
	for class, types := range map[WaitClass][]WaitType{
		WaitCPU: cpuWaitTypes, WaitMemory: memoryWaitTypes, WaitDiskIO: diskWaitTypes,
		WaitLogIO: logWaitTypes, WaitLock: lockWaitTypes, WaitLatch: latchWaitTypes,
		WaitSystem: systemWaitTypes,
	} {
		for _, k := range types {
			if string(k) == name {
				return class
			}
		}
	}
	switch {
	case strings.HasPrefix(name, "LCK_"):
		return WaitLock
	case strings.HasPrefix(name, "PAGEIOLATCH_"):
		return WaitDiskIO
	case strings.HasPrefix(name, "PAGELATCH_") || strings.HasPrefix(name, "LATCH_"):
		return WaitLatch
	case strings.HasPrefix(name, "LOG") || name == "WRITELOG":
		return WaitLogIO
	case strings.HasPrefix(name, "RESOURCE_SEMAPHORE") || strings.HasPrefix(name, "CMEMTHREAD"):
		return WaitMemory
	case strings.HasPrefix(name, "SOS_") || strings.HasPrefix(name, "CX"):
		return WaitCPU
	default:
		return WaitSystem
	}
}

// AggregateWaitTypes folds per-type wait times (ms) into the per-class
// totals a Snapshot carries — the telemetry manager's first transformation
// of raw telemetry.
func AggregateWaitTypes(byType map[WaitType]float64) [NumWaitClasses]float64 {
	var out [NumWaitClasses]float64
	for t, ms := range byType {
		out[ClassifyWaitType(t)] += ms
	}
	return out
}

// VisitClassWaits distributes one class's wait total across a realistic mix
// of its wait types (the inverse of AggregateWaitTypes, used by the engine
// simulator to emit raw telemetry in the shape a real DBMS reports it): it
// calls fn once per wait type of the class with that type's share of
// totalMs (totalMs * share / norm), touching no map at all. The split is
// deterministic: the first type in the class's catalog gets the largest
// share, decaying geometrically. Classes with no catalog or a non-positive
// total visit nothing.
func VisitClassWaits(class WaitClass, totalMs float64, fn func(WaitType, float64)) {
	types := classCatalog(class)
	if len(types) == 0 || totalMs <= 0 {
		return
	}
	// Geometric shares 1, 1/2, 1/4, ... normalized.
	var norm float64
	share := 1.0
	for range types {
		norm += share
		share /= 2
	}
	share = 1.0
	for _, t := range types {
		fn(t, totalMs*share/norm)
		share /= 2
	}
}

// classCatalog returns the catalog slice for one class (shared storage —
// callers must not modify it).
func classCatalog(class WaitClass) []WaitType {
	switch class {
	case WaitCPU:
		return cpuWaitTypes
	case WaitMemory:
		return memoryWaitTypes
	case WaitDiskIO:
		return diskWaitTypes
	case WaitLogIO:
		return logWaitTypes
	case WaitLock:
		return lockWaitTypes
	case WaitLatch:
		return latchWaitTypes
	case WaitSystem:
		return systemWaitTypes
	default:
		return nil
	}
}
