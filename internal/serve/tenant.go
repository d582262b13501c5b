package serve

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"daasscale/internal/ledger"
	"daasscale/internal/loop"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// stateApplier is the serving substrate: the daemon does not run the
// tenant's database, it tracks the desired container the control loop has
// decided on (in production this record is what the resize executor
// reconciles the real container against). Apply is infallible and
// synchronous, so the loop's synchronous path applies decisions within
// the interval, exactly like the simulation runners' engine applier.
type stateApplier struct {
	cur   resource.Container
	memMB float64
}

// Apply implements loop.Applier.
func (a *stateApplier) Apply(c resource.Container) error {
	a.cur = c
	return nil
}

// Actual implements loop.Applier.
func (a *stateApplier) Actual() resource.Container { return a.cur }

// tenant is one tenant's full serving pipeline: the bounded reorder
// window in front, the control loop in the middle, the append-only
// ledger behind. All state is guarded by mu; different tenants never
// share state, so ingest scales across tenants without contention.
type tenant struct {
	id  string
	srv *Server

	// mu serializes the pipeline. The ledger writer is not goroutine-safe
	// and the loop is single-goroutine state; one lock covers both. It is
	// held from the tenant's insertion into the map until its ledger is
	// open; ready flips then, and led is non-nil from then on.
	mu    sync.Mutex
	ready atomic.Bool

	lp      *loop.TenantLoop[resource.Container]
	applier *stateApplier
	led     *ledger.Writer
	ledRec  *ledger.Recorder

	// nextSeq is the ingest watermark: the next interval the loop will
	// decide. Every seq below it has been decided (possibly as a withheld
	// gap), which makes the watermark a complete duplicate filter.
	nextSeq int
	// buf holds out-of-order future snapshots, keyed by seq, bounded by
	// the server's reorder window.
	buf map[int]telemetry.Snapshot
	// prev is the last sanitized snapshot — SanitizeSnapshot's repair
	// source for non-finite fields of the next one.
	prev     telemetry.Snapshot
	havePrev bool

	bucket *tokenBucket

	// resumed reports whether the tenant's watermark was restored from an
	// existing ledger at open.
	resumed bool

	// quarantined marks the degraded mode: a storage error poisoned the
	// pipeline, ingest is refused with 503 until a recovery probe
	// succeeds. quarErr is the latched cause; lastProbe paces probes.
	quarantined bool
	quarErr     error
	lastProbe   time.Time

	// closed is set by drain: the ledger is closed, and ingest refuses
	// before it steps the loop or probes (a probe would rotate a fresh
	// segment open behind the closed server).
	closed bool
}

// ingestCounts summarizes what one ingest call did, for the HTTP reply
// and the metrics. NextSeq is the durability acknowledgment: in a 200 or
// 429 reply every interval below it is decided and (in the strict sync
// modes) on disk; in an error reply it is zero and acknowledges nothing.
type ingestCounts struct {
	Accepted    int `json:"accepted"`
	Duplicates  int `json:"duplicates"`
	Buffered    int `json:"buffered"`
	Gaps        int `json:"gaps"`
	RateLimited int `json:"rate_limited"`
	NextSeq     int `json:"next_seq"`
	BufferDepth int `json:"buffer_depth"`
	// RetryAfterSec mirrors the Retry-After header on a 429 reply.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// ledgerExt is the suffix of a tenant's active ledger segment in LedgerDir.
const ledgerExt = ".ledger"

// open assembles the pipeline (t.mu held), resuming the ingest watermark
// and the running container from the tenant's ledger when one exists — a
// restart continues the decision sequence instead of re-billing interval
// 0. The ledger is read once: the scan that validates every frame and
// finds the torn tail also yields the tail the pipeline resumes from.
func (t *tenant) open() error {
	s := t.srv
	base := t.id + ledgerExt
	led, tail, err := ledger.Open(s.fs, filepath.Join(s.cfg.LedgerDir, base), s.index[base], ledger.WithSyncEvery(s.syncEvery))
	if err != nil {
		return err
	}
	t.led, t.bucket = led, s.newBucket()
	if err := t.resume(tail); err != nil {
		led.Close()
		return err
	}
	return nil
}

// healBill repairs the one lockstep break a torn tail can leave: a
// trailing decision whose line item never made it to disk. The missing
// item is derived deterministically from the decision — byte-identical to
// what the live writer would have appended — and synced, so the interval
// is billed exactly once and the bill can never disagree with the
// decision trail.
func (t *tenant) healBill(tail ledger.Tail) error {
	if !tail.Unbilled {
		return nil
	}
	if err := t.led.AppendLineItem(ledger.LineItemFor(*tail.Last)); err != nil {
		return err
	}
	return t.led.Sync()
}

// resume heals the bill and (re)builds the tenant's in-memory pipeline —
// applier, policy, loop, watermark — from the tail of its ledger. It is
// the only way loop state is ever constructed: at first open and again
// after a quarantine, because once a storage error fires the in-memory
// loop has run ahead of disk and cannot be trusted; the durable record is
// the ground truth the pipeline restarts from.
func (t *tenant) resume(tail ledger.Tail) error {
	if err := t.healBill(tail); err != nil {
		return err
	}
	s := t.srv
	t.applier = &stateApplier{cur: s.cat.Smallest()}
	t.buf = make(map[int]telemetry.Snapshot)
	t.nextSeq = 0
	t.resumed = false
	t.prev = telemetry.Snapshot{}
	t.havePrev = false
	if last := tail.Last; last != nil {
		t.nextSeq = last.Interval + 1
		t.resumed = true
		// Resume the substrate from the last decided target, so billing and
		// hold decisions continue from the container the tenant was
		// actually left in.
		if c, ok := s.cat.ByName(last.Target); ok {
			t.applier.cur = c
		}
		t.applier.memMB = last.BalloonTargetMB
	}
	pol, err := s.newPolicy(t.id, t.applier.cur)
	if err != nil {
		return err
	}
	t.ledRec = &ledger.Recorder{W: t.led}
	var rec loop.Recorder = t.ledRec
	if s.cfg.TeeRecorder != nil {
		if extra := s.cfg.TeeRecorder(t.id); extra != nil {
			rec = teeRecorder{t.ledRec, extra}
		}
	}
	t.lp = loop.New(loop.Config[resource.Container]{
		ID: t.id,
		Decider: &loop.PolicyDecider{
			Policy:       pol,
			MemoryTarget: func() float64 { return t.applier.memMB },
		},
		Applier:  t.applier,
		Recorder: rec,
		Describe: loop.DescribeContainer,
	})
	return nil
}

// quarantine enters degraded mode: the cause is latched, the reorder
// buffer is dropped (nothing in it was ever acknowledged as durable — the
// client's resend covers it; keeping it would risk acking it later from a
// pipeline that has diverged from disk), and until a recovery probe
// succeeds every ingest gets a clean 503.
func (t *tenant) quarantine(err error) {
	if !t.quarantined {
		t.srv.metrics.addQuarantine()
	}
	t.quarantined = true
	t.quarErr = err
	t.lastProbe = t.srv.now()
	t.buf = make(map[int]telemetry.Snapshot)
}

// tryRecover attempts to leave degraded mode, paced by the server's probe
// interval. The probe is ledger rotation itself: sealing the damaged
// segment and creating a fresh one exercises create, write, fsync,
// rename, and directory sync — if all of that works the disk has
// demonstrably recovered, and the pipeline is rebuilt from the durable
// record. Returns true when the tenant is healthy again.
func (t *tenant) tryRecover() bool {
	now := t.srv.now()
	if now.Sub(t.lastProbe) < t.srv.probeInterval {
		return false
	}
	t.lastProbe = now
	if err := t.rebuild(); err != nil {
		t.quarErr = err
		return false
	}
	t.quarantined = false
	t.quarErr = nil
	t.srv.metrics.addRecovery()
	return true
}

// rebuild rotates the ledger (the probe write) and reconstructs the whole
// in-memory pipeline from the replayed durable record.
func (t *tenant) rebuild() error {
	if err := t.led.Rotate(); err != nil {
		return err
	}
	log, err := t.led.Replay()
	if err != nil {
		return err
	}
	return t.resume(log.Tail())
}

// step runs one interval through the control loop and the ledger.
// observed=false marks a withheld interval — a gap the reorder window
// gave up on — which bills the running container's list price and holds
// the current state.
func (t *tenant) step(seq int, snap telemetry.Snapshot, observed bool) error {
	if observed {
		// The wire-claimed interval must be the sequence number the
		// idempotency contract accepted; a skewed Interval field inside
		// the payload must not leak into the audit trail.
		snap.Interval = seq
		var prevPtr *telemetry.Snapshot
		if t.havePrev {
			prevPtr = &t.prev
		}
		if fixed := telemetry.SanitizeSnapshot(&snap, prevPtr); fixed > 0 {
			t.srv.metrics.addSanitized(int64(fixed))
		}
		t.prev = snap
		t.havePrev = true
	} else {
		cur := t.applier.cur
		snap = telemetry.Snapshot{
			Interval:  seq,
			Container: cur.Name,
			Step:      cur.Step,
			Cost:      cur.Cost,
		}
	}
	start := t.srv.now()
	if err := t.lp.StepSnapshot(seq, snap, observed); err != nil {
		return err
	}
	t.applier.memMB = t.lp.LastDecision().BalloonTargetMB
	t.srv.metrics.observeDecision(t.srv.now().Sub(start))
	return t.ledRec.Err()
}

// drainReady steps every contiguously buffered snapshot at the watermark.
func (t *tenant) drainReady(counts *ingestCounts) error {
	for {
		snap, ok := t.buf[t.nextSeq]
		if !ok {
			return nil
		}
		delete(t.buf, t.nextSeq)
		if err := t.step(t.nextSeq, snap, true); err != nil {
			return err
		}
		counts.Accepted++
		t.nextSeq++
	}
}

// flushOverflow gives up waiting for missing intervals once the reorder
// buffer exceeds the window: the gap up to the earliest buffered snapshot
// is decided as withheld intervals (hold decisions, billed at the running
// container's list price), then the buffered run drains. Late snapshots
// for a flushed gap are thereafter duplicates — decided intervals are
// never re-decided, which is what keeps replay deterministic.
func (t *tenant) flushOverflow(counts *ingestCounts) error {
	for len(t.buf) > t.srv.reorderWindow {
		min := -1
		for seq := range t.buf {
			if min < 0 || seq < min {
				min = seq
			}
		}
		for i := t.nextSeq; i < min; i++ {
			if err := t.step(i, telemetry.Snapshot{}, false); err != nil {
				return err
			}
			counts.Gaps++
			t.nextSeq++
		}
		if err := t.drainReady(counts); err != nil {
			return err
		}
	}
	return nil
}

// ingest runs one batch of wire snapshots through the pipeline under the
// tenant lock. Each snapshot charges one rate-limiter token; when the
// bucket empties the rest of the batch is refused (the client retries
// with backoff) without touching the decided prefix.
//
// Storage failure is fail-safe, never fail-silent: any step or sync error
// quarantines the tenant and the reply is a 503 whose counts acknowledge
// nothing — the client resends after Retry-After, and because decided
// intervals are duplicates, the resend is harmless. A quarantined tenant
// answers 503 immediately (after at most one recovery probe).
func (t *tenant) ingest(batch []ingestItem) (ingestCounts, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	counts := ingestCounts{}
	if t.closed {
		return counts, http.StatusServiceUnavailable, fmt.Errorf("serve: draining")
	}
	if t.quarantined && !t.tryRecover() {
		return counts, http.StatusServiceUnavailable, fmt.Errorf("serve: tenant %s degraded (storage failure): %v", t.id, t.quarErr)
	}
	status := http.StatusOK
	for i := range batch {
		if !t.bucket.allow(t.srv.now()) {
			counts.RateLimited++
			counts.RetryAfterSec = t.bucket.retryAfterSec()
			status = http.StatusTooManyRequests
			break
		}
		seq, snap := batch[i].seq, &batch[i].snap // seq ≥ 0: the handler checked
		switch {
		case seq < t.nextSeq:
			counts.Duplicates++ // already decided (or flushed as a gap)
		case seq == t.nextSeq:
			if err := t.step(seq, *snap, true); err != nil {
				t.quarantine(err)
				return ingestCounts{}, http.StatusServiceUnavailable, err
			}
			counts.Accepted++
			t.nextSeq++
			if err := t.drainReady(&counts); err != nil {
				t.quarantine(err)
				return ingestCounts{}, http.StatusServiceUnavailable, err
			}
		default: // future: buffer within the bounded reorder window
			if _, dup := t.buf[seq]; dup {
				counts.Duplicates++
				continue
			}
			t.buf[seq] = *snap
			counts.Buffered++
			if err := t.flushOverflow(&counts); err != nil {
				t.quarantine(err)
				return ingestCounts{}, http.StatusServiceUnavailable, err
			}
		}
	}
	// Request-sync mode (SyncEvery < 0) defers durability to one fsync
	// here, after the whole batch; per-record and group-commit strides
	// are the writer's own policy. Either way the fsync must succeed
	// before NextSeq is reported — the reply is the durability ack.
	if t.srv.syncEvery < 0 {
		if err := t.led.Sync(); err != nil {
			t.quarantine(err)
			return ingestCounts{}, http.StatusServiceUnavailable, err
		}
	}
	counts.NextSeq = t.nextSeq
	counts.BufferDepth = len(t.buf)
	return counts, status, nil
}

// drain flushes everything the tenant has buffered — gaps decided as
// withheld intervals, buffered snapshots decided in order — then syncs
// and closes the ledger. Called on graceful shutdown so nothing received
// is lost.
//
// A quarantined tenant is drained by releasing the handle, nothing more:
// its buffer was already dropped (nothing in it was acked), and stepping
// through a poisoned ledger would either fail again or bury torn frames.
// Crucially this cannot hang or spuriously ack — the quarantined path
// does no I/O that can block and records nothing new.
func (t *tenant) drain() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	if t.quarantined {
		t.led.Close()
		return nil
	}
	var counts ingestCounts
	for len(t.buf) > 0 {
		min := -1
		for seq := range t.buf {
			if min < 0 || seq < min {
				min = seq
			}
		}
		for i := t.nextSeq; i < min; i++ {
			if err := t.step(i, telemetry.Snapshot{}, false); err != nil {
				t.quarantine(err)
				t.led.Close()
				return err
			}
			t.nextSeq++
		}
		if err := t.drainReady(&counts); err != nil {
			t.quarantine(err)
			t.led.Close()
			return err
		}
	}
	return t.led.Close()
}

// teeRecorder fans one record out to both destinations (ledger first).
type teeRecorder [2]loop.Recorder

// Record implements loop.Recorder.
func (tr teeRecorder) Record(r loop.DecisionRecord) {
	tr[0].Record(r)
	tr[1].Record(r)
}
