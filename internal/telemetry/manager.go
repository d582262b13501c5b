package telemetry

import (
	"daasscale/internal/resource"
	"daasscale/internal/stats"
)

// ResourceSignals summarizes one physical resource dimension over the
// manager's window: robust (median) aggregates of utilization and waits,
// the Theil–Sen trends of both, and the Spearman correlation of the
// resource's waits with latency (Section 3.2.2: strong correlation marks
// the resource as the likely bottleneck).
type ResourceSignals struct {
	// Utilization is the median fraction (0..1) of the allocation used.
	Utilization float64
	// UtilTrend is the robust trend of per-interval utilization.
	UtilTrend stats.Trend
	// WaitMs is the median per-interval wait magnitude for the resource.
	WaitMs float64
	// PrevWaitMs and PrevUtilization are the second-most-recent interval's
	// values; together with the current snapshot they form the fast
	// two-interval confirmation path for burst onsets.
	PrevWaitMs      float64
	PrevUtilization float64
	// WaitPct is the median share (0..1) of total waits attributed to the
	// resource.
	WaitPct float64
	// WaitTrend is the robust trend of per-interval wait magnitude.
	WaitTrend stats.Trend
	// WaitLatencyCorr is Spearman's ρ between the resource's waits and p95
	// latency over the window (0 when undefined).
	WaitLatencyCorr float64
}

// LatencySignals summarizes request latency over the window.
type LatencySignals struct {
	// AvgMs and P95Ms are medians of the per-interval aggregates.
	AvgMs float64
	P95Ms float64
	// PrevAvgMs and PrevP95Ms are the second-most-recent interval's
	// aggregates: together with the current snapshot they give a fast
	// two-interval confirmation path for goal violations at burst onset,
	// before the windowed median catches up.
	PrevAvgMs float64
	PrevP95Ms float64
	// Trend is the robust trend of per-interval p95 latency.
	Trend stats.Trend
}

// Signals is the telemetry manager's output for one decision point: every
// signal the demand estimator consumes.
type Signals struct {
	// Latency aggregates the latency signals.
	Latency LatencySignals
	// Resources holds per-physical-resource signals, indexed by
	// resource.Kind.
	Resources [resource.NumKinds]ResourceSignals
	// LogicalWaitPct is the median share of waits attributed to each
	// logical (non-provisionable) class; indexed by WaitClass, only the
	// lock/latch/system entries are meaningful.
	LogicalWaitPct [NumWaitClasses]float64
	// MemoryUsedMB is the most recent memory in use.
	MemoryUsedMB float64
	// PhysicalReadsMedian is the median per-interval physical reads —
	// the ballooning controller's abort signal.
	PhysicalReadsMedian float64
	// OfferedRPS is the median offered load.
	OfferedRPS float64
	// Window is the number of intervals the signals were computed over.
	Window int
	// Quality is the manager's delivery/sanitization accounting over the
	// window: how complete and trustworthy the signals are. Consumers (the
	// demand estimator) widen their no-op band when Quality is degraded.
	Quality Quality
	// Current is the most recent snapshot.
	Current Snapshot
}

// SteadySignals builds the Signals a manager would produce if the given
// snapshot repeated forever: medians, previous values and the current
// snapshot all equal it, and no trends are significant. Useful for
// evaluating the estimator on individual labeled observations.
func SteadySignals(s Snapshot) Signals {
	var sig Signals
	sig.Window = MinIntervalsForSignals
	sig.Quality = Quality{IntervalsSeen: MinIntervalsForSignals}
	sig.Current = s
	sig.MemoryUsedMB = s.MemoryUsedMB
	sig.OfferedRPS = s.OfferedRPS
	sig.PhysicalReadsMedian = s.PhysicalReads
	sig.Latency.AvgMs = s.AvgLatencyMs
	sig.Latency.P95Ms = s.P95LatencyMs
	sig.Latency.PrevAvgMs = s.AvgLatencyMs
	sig.Latency.PrevP95Ms = s.P95LatencyMs
	for _, k := range resource.Kinds {
		wc := WaitClassFor(k)
		sig.Resources[k] = ResourceSignals{
			Utilization:     s.Utilization[k],
			WaitMs:          s.WaitMs[wc],
			WaitPct:         s.WaitPct(wc),
			PrevWaitMs:      s.WaitMs[wc],
			PrevUtilization: s.Utilization[k],
		}
	}
	for _, wc := range []WaitClass{WaitLock, WaitLatch, WaitSystem} {
		sig.LogicalWaitPct[wc] = s.WaitPct(wc)
	}
	return sig
}

// Manager is the telemetry manager (Section 3): it retains a sliding window
// of per-interval snapshots and derives the robust signals used for demand
// estimation. The zero value is not usable; construct with NewManager.
//
// The window is a fixed-capacity ring buffer and every slice Signals needs
// is a per-manager scratch arena, so after the arenas warm up (one Signals
// call at full window) the manager performs zero heap allocations per
// decision point — the property the fleet-scale simulator leans on (see
// DESIGN.md, "Hot path & performance model"). Signals are additionally
// cached between observations: repeated Signals() calls within one billing
// interval return the cached value, and any Observe invalidates it.
type Manager struct {
	window int
	alpha  float64

	// ring holds the retained snapshots. It grows (once) to the window
	// capacity; when full, head is the index of the oldest snapshot and new
	// observations overwrite it in place.
	ring []Snapshot
	head int

	// meta mirrors ring slot-for-slot with the per-snapshot quality
	// accounting (fields sanitized, gap/duplicate/out-of-order delivery),
	// so Quality is window-scoped and ages out with the snapshots.
	meta []snapMeta
	// lastInterval/haveLast track the interval index of the previously
	// delivered snapshot for delivery-order accounting.
	lastInterval int
	haveLast     bool

	// cached is the memoized output of the last Signals computation;
	// cachedOK marks it valid until the next observation.
	cached   Signals
	cachedOK bool

	// Scratch arenas, sized to the window on first use and reused forever:
	// column buffers for the trend x-axis, p95 latency, the per-resource
	// util/wait columns, and a median scratch; plus the Theil–Sen pairwise
	// slope buffer and the Spearman rank/index scratch.
	xs, p95, col, med []float64
	tsBuf             []float64
	spear             stats.SpearmanScratch
}

// MinIntervalsForSignals is the minimum history before Signals reports.
const MinIntervalsForSignals = 3

// NewManager creates a telemetry manager with the given window (intervals).
// window < MinIntervalsForSignals is raised to the minimum.
func NewManager(window int) *Manager {
	if window < MinIntervalsForSignals {
		window = MinIntervalsForSignals
	}
	return &Manager{
		window: window,
		alpha:  stats.DefaultTrendAlpha,
		ring:   make([]Snapshot, 0, window),
		meta:   make([]snapMeta, 0, window),
	}
}

// snapMeta is the per-retained-snapshot quality accounting.
type snapMeta struct {
	// sanitized is the number of counter fields repaired on ingest.
	sanitized int
	// gap is the number of missing interval indices detected immediately
	// before this snapshot (capped at the window length).
	gap int
	// dup and ooo mark duplicate-interval and backwards deliveries.
	dup, ooo bool
}

// Observe appends one billing interval's snapshot, evicting history beyond
// the window. Once the ring is full, the oldest snapshot is overwritten in
// place — no allocation, no copying of the retained window.
//
// The snapshot is validated and sanitized before retention (SanitizeSnapshot:
// non-finite counters replaced with the previous interval's value, negative
// counters clamped to zero), and the delivery order of interval indices is
// tracked, so a faulty telemetry channel degrades the Signals' Quality
// instead of corrupting every median, trend and correlation. Snapshots are
// retained even when duplicated or out of order: the robust kernels tolerate
// them, and the Quality accounting tells consumers how much to trust the
// window.
func (m *Manager) Observe(s Snapshot) {
	var prev *Snapshot
	if len(m.ring) > 0 {
		prev = m.at(len(m.ring) - 1)
	}
	meta := snapMeta{sanitized: SanitizeSnapshot(&s, prev)}
	if m.haveLast {
		switch {
		case s.Interval == m.lastInterval:
			meta.dup = true
		case s.Interval < m.lastInterval:
			meta.ooo = true
		case s.Interval > m.lastInterval+1:
			meta.gap = s.Interval - m.lastInterval - 1
			if meta.gap > m.window {
				meta.gap = m.window
			}
		}
	}
	if !m.haveLast || s.Interval > m.lastInterval {
		m.lastInterval = s.Interval
	}
	m.haveLast = true
	if len(m.ring) < m.window {
		m.ring = append(m.ring, s)
		m.meta = append(m.meta, meta)
	} else {
		m.ring[m.head] = s
		m.meta[m.head] = meta
		m.head++
		if m.head == m.window {
			m.head = 0
		}
	}
	m.cachedOK = false
}

// at returns the i-th retained snapshot in chronological order (0 =
// oldest).
func (m *Manager) at(i int) *Snapshot {
	j := m.head + i
	if j >= len(m.ring) {
		j -= len(m.ring)
	}
	return &m.ring[j]
}

// metaAt returns the i-th retained snapshot's quality accounting, indexed
// like at.
func (m *Manager) metaAt(i int) *snapMeta {
	j := m.head + i
	if j >= len(m.meta) {
		j -= len(m.meta)
	}
	return &m.meta[j]
}

// quality sums the window's per-snapshot accounting into the Quality that
// ships with the signals. Pure over the retained meta ring.
func (m *Manager) quality(n int) Quality {
	q := Quality{IntervalsSeen: n}
	for i := 0; i < n; i++ {
		mt := m.metaAt(i)
		q.Sanitized += mt.sanitized
		q.Gaps += mt.gap
		if mt.dup {
			q.Duplicates++
		}
		if mt.ooo {
			q.OutOfOrder++
		}
	}
	return q
}

// Signals computes the derived signals over the retained window. ok is
// false until MinIntervalsForSignals snapshots have been observed.
//
// After the scratch arenas warm up (one call at the current window length),
// the computation allocates nothing; the result is also cached, so repeat
// calls between observations are O(1). Bit for bit it equals the
// pre-optimization sort-based implementation, whose recorded output the
// telemetry tests pin as sha256 goldens.
func (m *Manager) Signals() (Signals, bool) {
	n := len(m.ring)
	if n < MinIntervalsForSignals {
		return Signals{}, false
	}
	if m.cachedOK {
		return m.cached, true
	}
	m.cached = m.computeSignals(n)
	m.cachedOK = true
	return m.cached, true
}

// grow resizes a scratch arena to n, reusing its backing array when
// possible.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// medianColumn fills the median scratch with one column of the window and
// selects its median in place. get must not retain the snapshot pointer.
func (m *Manager) medianColumn(n int, get func(*Snapshot) float64) float64 {
	m.med = grow(m.med, n)
	for i := 0; i < n; i++ {
		m.med[i] = get(m.at(i))
	}
	return stats.MedianInPlace(m.med)
}

func (m *Manager) computeSignals(n int) Signals {
	m.xs = grow(m.xs, n)
	m.p95 = grow(m.p95, n)
	for i := 0; i < n; i++ {
		s := m.at(i)
		m.xs[i] = float64(s.Interval)
		m.p95[i] = s.P95LatencyMs
	}

	var sig Signals
	sig.Window = n
	sig.Quality = m.quality(n)
	sig.Current = *m.at(n - 1)
	sig.MemoryUsedMB = sig.Current.MemoryUsedMB
	sig.OfferedRPS = m.medianColumn(n, func(s *Snapshot) float64 { return s.OfferedRPS })
	sig.PhysicalReadsMedian = m.medianColumn(n, func(s *Snapshot) float64 { return s.PhysicalReads })
	sig.Latency.AvgMs = m.medianColumn(n, func(s *Snapshot) float64 { return s.AvgLatencyMs })
	m.med = grow(m.med, n)
	copy(m.med, m.p95)
	sig.Latency.P95Ms = stats.MedianInPlace(m.med)
	prev := m.at(n - 2)
	sig.Latency.PrevAvgMs = prev.AvgLatencyMs
	sig.Latency.PrevP95Ms = prev.P95LatencyMs
	if tr, err := stats.TheilSenBuf(m.xs, m.p95, m.alpha, &m.tsBuf); err == nil {
		sig.Latency.Trend = tr
	}

	for _, k := range resource.Kinds {
		wc := WaitClassFor(k)
		rs := ResourceSignals{
			PrevWaitMs:      prev.WaitMs[wc],
			PrevUtilization: prev.Utilization[k],
		}
		// One column buffer serves both the utilization and wait series:
		// the utilization trend is computed before the column is refilled
		// with waits. Medians go through the separate median scratch so the
		// column stays in chronological order for the trend fits.
		m.col = grow(m.col, n)
		for i := 0; i < n; i++ {
			m.col[i] = m.at(i).Utilization[k]
		}
		rs.Utilization = m.medianColumn(n, func(s *Snapshot) float64 { return s.Utilization[k] })
		if tr, err := stats.TheilSenBuf(m.xs, m.col, m.alpha, &m.tsBuf); err == nil {
			rs.UtilTrend = tr
		}
		for i := 0; i < n; i++ {
			m.col[i] = m.at(i).WaitMs[wc]
		}
		rs.WaitMs = m.medianColumn(n, func(s *Snapshot) float64 { return s.WaitMs[wc] })
		rs.WaitPct = m.medianColumn(n, func(s *Snapshot) float64 { return s.WaitPct(wc) })
		if tr, err := stats.TheilSenBuf(m.xs, m.col, m.alpha, &m.tsBuf); err == nil {
			rs.WaitTrend = tr
		}
		if rho, err := stats.SpearmanBuf(m.col, m.p95, &m.spear); err == nil {
			rs.WaitLatencyCorr = rho
		}
		sig.Resources[k] = rs
	}

	for _, wc := range []WaitClass{WaitLock, WaitLatch, WaitSystem} {
		sig.LogicalWaitPct[wc] = m.medianColumn(n, func(s *Snapshot) float64 { return s.WaitPct(wc) })
	}
	return sig
}
