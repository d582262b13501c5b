// Package serve is the autoscaler-as-a-service layer: a long-running
// ingestion daemon that accepts per-tenant telemetry snapshots over HTTP,
// drives each tenant's loop.TenantLoop exactly as the simulation runners
// do, and persists every decision and billing line-item to an append-only
// per-tenant ledger (package ledger).
//
// The serving contract mirrors the paper's deployment shape — telemetry
// counters flow from database nodes to a central scaling service — and
// adds the realities a wire transport brings:
//
//   - Idempotency: each snapshot carries a sequence number (its billing
//     interval). A sequence at or below the tenant's watermark is a
//     duplicate and a no-op, so at-least-once senders are safe.
//   - Bounded reordering: out-of-order future snapshots wait in a
//     per-tenant reorder buffer. When the buffer exceeds its window the
//     missing intervals are decided as withheld (the loop's hold decision,
//     billed at the running container's list price) and the stream moves
//     on — late data can delay decisions, never corrupt them.
//   - Backpressure: a per-tenant token bucket sheds ingest load with 429s
//     before it can queue unboundedly.
//   - Durability: decisions are on disk (fsync'd, checksummed) before the
//     ingest response is written, and a restarted server resumes each
//     tenant's watermark from its ledger.
//
// Determinism carries over from the simulators: the decision sequence is
// a pure function of the accepted snapshot sequence and the policy
// configuration, so ledger.Replay over a recorded run reproduces the live
// decisions byte-for-byte regardless of request batching, timing, or
// server restarts.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"daasscale/internal/core"
	"daasscale/internal/fsio"
	"daasscale/internal/ledger"
	"daasscale/internal/loop"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// Defaults for zero-valued Config fields.
const (
	// DefaultGoalMs is the default P95 latency goal.
	DefaultGoalMs = 100
	// DefaultReorderWindow is the default per-tenant reorder-buffer bound.
	DefaultReorderWindow = 16
	// DefaultBurst is the default rate-limiter bucket size when a rate is
	// set without an explicit burst.
	DefaultBurst = 64
	// DefaultProbeInterval is the default pacing between a quarantined
	// tenant's recovery probes, and the Retry-After hint on degraded 503s.
	DefaultProbeInterval = 5 * time.Second
)

// tenantIDPattern constrains tenant IDs to ledger-filename-safe tokens.
var tenantIDPattern = regexp.MustCompile(`^[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}$`)

// Config assembles a Server.
type Config struct {
	// LedgerDir is the directory holding one append-only ledger per tenant
	// (<id>.ledger). Required; created if missing.
	LedgerDir string
	// Catalog is the container catalog tenants scale over (nil =
	// resource.DefaultCatalog).
	Catalog *resource.Catalog
	// GoalMs is the P95 latency goal handed to the default policy (0 =
	// DefaultGoalMs). Ignored when NewPolicy is set.
	GoalMs float64
	// NewPolicy builds a tenant's policy; initial is the container the
	// tenant starts (or, after a restart, resumes) in. Nil uses the
	// default demand-driven auto-scaler.
	NewPolicy func(tenantID string, initial resource.Container) (policy.Policy, error)
	// ReorderWindow bounds the per-tenant reorder buffer (0 =
	// DefaultReorderWindow). Once more than ReorderWindow future
	// snapshots wait, the oldest gap is flushed as withheld intervals.
	ReorderWindow int
	// RatePerSec is the per-tenant ingest rate limit in snapshots/second
	// (0 = unlimited).
	RatePerSec float64
	// Burst is the rate limiter's bucket size (0 = DefaultBurst).
	Burst int
	// SyncEvery is the ledger group-commit stride (0 = 1: fsync every
	// record; n > 1 amortizes the fsync over n records; < 0 syncs once
	// per ingest request).
	SyncEvery int
	// MaxTenants caps the tenant map (0 = unlimited). Ingest for a new
	// tenant beyond the cap is refused with 503.
	MaxTenants int
	// FS is the filesystem every ledger write goes through (nil =
	// fsio.OS, the real disk). The crash-consistency harness substitutes
	// a fault-injecting or crash-simulating implementation; production
	// always runs on the default.
	FS fsio.FS
	// ProbeInterval paces a quarantined tenant's recovery probes (0 =
	// DefaultProbeInterval): after a storage error, at most one ledger
	// rotation probe is attempted per interval, and degraded 503s carry
	// it as the Retry-After hint.
	ProbeInterval time.Duration
	// Now is the clock (nil = time.Now). Injectable for rate-limit and
	// metrics tests; decisions never depend on it.
	Now func() time.Time
	// TeeRecorder, when set, supplies an extra loop.Recorder per tenant
	// that receives every DecisionRecord alongside the ledger — the
	// replay-equals-live tests use it to capture the live stream.
	TeeRecorder func(tenantID string) loop.Recorder
}

// Server is the ingestion daemon: an http.Handler plus the tenant
// pipelines and ledgers behind it.
type Server struct {
	cfg           Config
	cat           *resource.Catalog
	goalMs        float64
	reorderWindow int
	syncEvery     int
	fs            fsio.FS
	probeInterval time.Duration
	now           func() time.Time
	mux           *http.ServeMux
	metrics       *metrics
	// index is the one listing of LedgerDir, taken in New and read-only
	// after. It is consulted only to open a tenant; from then on the
	// writer keeps its own seal list, and residents are never evicted.
	index ledger.Index

	mu      sync.RWMutex
	tenants map[string]*tenant
	// draining is set by the first Close and never cleared: from then on
	// new work is refused and a further Close returns at once.
	draining bool
}

// New builds a Server, creating the ledger directory if needed.
func New(cfg Config) (*Server, error) {
	if cfg.LedgerDir == "" {
		return nil, fmt.Errorf("serve: Config.LedgerDir is required")
	}
	s := &Server{
		cfg:           cfg,
		cat:           cfg.Catalog,
		goalMs:        cfg.GoalMs,
		reorderWindow: cfg.ReorderWindow,
		syncEvery:     cfg.SyncEvery,
		fs:            cfg.FS,
		probeInterval: cfg.ProbeInterval,
		now:           cfg.Now,
		tenants:       make(map[string]*tenant),
	}
	if s.fs == nil {
		s.fs = fsio.OS
	}
	if s.probeInterval <= 0 {
		s.probeInterval = DefaultProbeInterval
	}
	if err := s.fs.MkdirAll(cfg.LedgerDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var err error
	if s.index, err = ledger.ListDir(s.fs, cfg.LedgerDir); err != nil {
		return nil, fmt.Errorf("serve: listing ledgers: %w", err)
	}
	if s.cat == nil {
		s.cat = resource.DefaultCatalog()
	}
	if s.goalMs <= 0 {
		s.goalMs = DefaultGoalMs
	}
	if s.reorderWindow <= 0 {
		s.reorderWindow = DefaultReorderWindow
	}
	if s.syncEvery == 0 {
		s.syncEvery = 1
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.metrics = newMetrics(s.now())

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /v1/tenants/{id}/decisions", s.handleDecisions)
	mux.HandleFunc("GET /v1/tenants/{id}/bill", s.handleBill)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.addRequest()
	s.mux.ServeHTTP(w, r)
}

// newPolicy builds a tenant's policy via Config.NewPolicy or the default
// demand-driven auto-scaler.
func (s *Server) newPolicy(id string, initial resource.Container) (policy.Policy, error) {
	if s.cfg.NewPolicy != nil {
		return s.cfg.NewPolicy(id, initial)
	}
	sc, err := core.New(core.Config{
		Catalog: s.cat,
		Initial: initial,
		Goal:    core.LatencyGoal{Kind: core.GoalP95, Ms: s.goalMs},
	})
	if err != nil {
		return nil, err
	}
	return policy.NewAuto(sc), nil
}

// newBucket builds a per-tenant token bucket from the configured rate
// (nil when unlimited).
func (s *Server) newBucket() *tokenBucket {
	if s.cfg.RatePerSec <= 0 {
		return nil
	}
	burst := s.cfg.Burst
	if burst <= 0 {
		burst = DefaultBurst
	}
	return newTokenBucket(s.cfg.RatePerSec, burst, s.now())
}

// getTenant returns the tenant pipeline for id, opening it (resuming from
// its ledger) on first sight. With create unset — the read endpoints — an
// id that has no ledger on disk is 404 and nothing is created.
//
// Server.mu covers only the map: a first touch inserts the tenant with its
// own lock held and opens the ledger outside the map lock, so distinct
// tenants recover in parallel and residents are never behind a recovery.
// A concurrent touch of the same id waits on the tenant's lock; a failed
// open removes the entry before releasing it, and the waiter tries again.
func (s *Server) getTenant(id string, create bool) (*tenant, int, error) {
	for {
		s.mu.RLock()
		t, ok := s.tenants[id]
		draining := s.draining
		s.mu.RUnlock()
		if ok {
			if !t.ready.Load() {
				t.mu.Lock() // opening: wait for the opener
				t.mu.Unlock()
				if !t.ready.Load() {
					continue
				}
			}
			return t, http.StatusOK, nil
		}
		if _, onDisk := s.index[id+ledgerExt]; !create && !onDisk {
			return nil, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id)
		}
		if draining {
			return nil, http.StatusServiceUnavailable, fmt.Errorf("serve: draining")
		}
		s.mu.Lock()
		if _, ok := s.tenants[id]; ok || s.draining {
			s.mu.Unlock()
			continue
		}
		if s.cfg.MaxTenants > 0 && len(s.tenants) >= s.cfg.MaxTenants {
			s.mu.Unlock()
			return nil, http.StatusServiceUnavailable, fmt.Errorf("serve: tenant limit (%d) reached", s.cfg.MaxTenants)
		}
		t = &tenant{id: id, srv: s}
		t.mu.Lock()
		s.tenants[id] = t
		s.mu.Unlock()

		err := t.open()
		s.mu.Lock()
		if err == nil && s.draining {
			// Close ran meanwhile and skipped this tenant: nothing was
			// ingested, so releasing the handle is the whole drain.
			t.led.Close()
			err = fmt.Errorf("serve: draining")
		}
		if err != nil {
			delete(s.tenants, id)
		} else {
			t.ready.Store(true)
		}
		s.mu.Unlock()
		t.mu.Unlock()
		if err != nil {
			// A tenant that cannot open its ledger is a storage refusal, not
			// a server bug: 503, retry once the disk recovers.
			return nil, http.StatusServiceUnavailable, err
		}
		return t, http.StatusOK, nil
	}
}

// residents returns the tenants that have finished opening. A tenant still
// recovering holds its own lock and has no writer yet; /healthz, /metrics
// and Close must neither wait for it nor look inside it.
func (s *Server) residents() (tenants []*tenant, draining bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tenants = make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t.ready.Load() {
			tenants = append(tenants, t)
		}
	}
	return tenants, s.draining
}

// Close drains and shuts the server down: new work is refused, every
// tenant's reorder buffer is flushed through its loop (gaps decided as
// withheld intervals), and every ledger is synced and closed. Safe to
// call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	// A tenant that becomes ready after this point saw draining under
	// Server.mu and closed its own ledger (getTenant).
	tenants, _ := s.residents()
	var first error
	for _, t := range tenants {
		if err := t.drain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// wireSnapshot is one telemetry snapshot on the wire. Seq is the
// idempotency key — the billing interval the snapshot covers; when
// omitted it defaults to the snapshot's Interval field. The ingest body is
// a single snapshot ({"seq","snapshot"}), a batch ({"batch":[...]}), or
// both (single first); decodeBody reads it.
type wireSnapshot struct {
	Seq      *int               `json:"seq,omitempty"`
	Snapshot telemetry.Snapshot `json:"snapshot"`
}

// ingestReply is the ingest response body.
type ingestReply struct {
	Tenant string `json:"tenant"`
	ingestCounts
	Error string `json:"error,omitempty"`
}

// maxBodyBytes bounds an ingest request body.
const maxBodyBytes = 8 << 20

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !tenantIDPattern.MatchString(id) {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("invalid tenant id %q", id))
		return
	}
	dec, batch, err := decodeBody(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	defer dec.release()
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if len(batch) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("empty request: need snapshot or batch"))
		return
	}
	// A refused request decides nothing: every item is checked before the
	// tenant is opened (or created) and before any of them is stepped.
	for i := range batch {
		if seq := batch[i].seq; seq < 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: negative sequence number %d", seq))
			return
		}
	}

	t := s.tenantFor(w, id, true)
	if t == nil {
		return
	}
	counts, status, err := t.ingest(batch)
	s.metrics.addIngest(counts)
	reply := ingestReply{Tenant: id, ingestCounts: counts}
	if err != nil {
		s.metrics.addError()
		reply.Error = err.Error()
	}
	switch status {
	case http.StatusTooManyRequests:
		sec := counts.RetryAfterSec
		if sec < 1 {
			sec = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(sec))
	case http.StatusServiceUnavailable:
		// Degraded: nothing in this request is acknowledged; retry after
		// the next recovery probe will have had a chance to run.
		w.Header().Set("Retry-After", s.degradedRetryAfter())
	}
	writeJSON(w, status, reply)
}

// degradedRetryAfter is the Retry-After value for degraded-mode 503s:
// the probe interval, rounded up to whole seconds.
func (s *Server) degradedRetryAfter() string {
	sec := int(math.Ceil(s.probeInterval.Seconds()))
	if sec < 1 {
		sec = 1
	}
	return strconv.Itoa(sec)
}

// decisionsReply is the decisions response body.
type decisionsReply struct {
	Tenant    string                `json:"tenant"`
	Decisions []loop.DecisionRecord `json:"decisions"`
	Truncated bool                  `json:"ledger_truncated_tail"`
}

// tenantFor resolves a request's tenant, answering the refusal itself
// (nil return) when there is none to serve it.
func (s *Server) tenantFor(w http.ResponseWriter, id string, create bool) *tenant {
	t, status, err := s.getTenant(id, create)
	if err != nil {
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", s.degradedRetryAfter())
		}
		s.fail(w, status, err)
	}
	return t
}

func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	since, err := intParam(r, "since")
	limit, lerr := intParam(r, "limit")
	if err == nil {
		err = lerr
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	t := s.tenantFor(w, id, false)
	if t == nil {
		return
	}
	log, err := t.replay()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	decs := log.Decisions()
	if since > 0 {
		i := sort.Search(len(decs), func(i int) bool { return decs[i].Interval >= since })
		decs = decs[i:]
	}
	if limit >= 0 && limit < len(decs) {
		decs = decs[len(decs)-limit:]
	}
	writeJSON(w, http.StatusOK, decisionsReply{Tenant: id, Decisions: decs, Truncated: log.Truncated})
}

// billReply is the bill response body.
type billReply struct {
	Tenant    string            `json:"tenant"`
	LineItems []ledger.LineItem `json:"line_items"`
	TotalCost float64           `json:"total_cost"`
}

func (s *Server) handleBill(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := s.tenantFor(w, id, false)
	if t == nil {
		return
	}
	log, err := t.replay()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, billReply{Tenant: id, LineItems: log.Items(), TotalCost: log.TotalCost()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	tenants, draining := s.residents()
	quarantined := []string{}
	for _, t := range tenants {
		t.mu.Lock()
		if t.quarantined {
			quarantined = append(quarantined, t.id)
		}
		t.mu.Unlock()
	}
	sort.Strings(quarantined)
	status := "ok"
	switch {
	case draining:
		status = "draining"
	case len(quarantined) > 0:
		// Degraded but alive: healthy tenants still serve; quarantined
		// ones refuse cleanly. The process should not be restarted for
		// this — the disk is the problem.
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":              status,
		"tenants":             len(tenants),
		"draining":            draining,
		"quarantined":         len(quarantined),
		"quarantined_tenants": quarantined,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	tenants, draining := s.residents()
	var depth, quarantined int
	var records, bytes, syncs, seals int64
	for _, t := range tenants {
		t.mu.Lock()
		depth += len(t.buf)
		records += t.led.Records()
		bytes += t.led.Bytes()
		syncs += t.led.Syncs()
		seals += t.led.Seals()
		if t.quarantined {
			quarantined++
		}
		t.mu.Unlock()
	}
	snap := s.metrics.snapshot(s.now(), len(tenants), depth, draining)
	snap.Ledger = ledgerMetrics{Records: records, Bytes: bytes, Syncs: syncs, Seals: seals}
	snap.Storage.QuarantinedNow = quarantined
	writeJSON(w, http.StatusOK, snap)
}

// replay syncs the tenant's ledger and reads it back — the query
// endpoints serve from the ledger itself, so what they return is by
// construction what a post-hoc audit would reproduce.
//
// A quarantined (or freshly failing) tenant still answers: the sync is
// skipped — a poisoned writer has nothing flushable that is safe to
// flush — and the reply is the durable prefix, which is correct by
// definition. Refusal is reserved for writes; reads of the durable
// record are always safe to serve.
func (t *tenant) replay() (*ledger.Log, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.quarantined && t.led.Failed() == nil {
		if err := t.led.Sync(); err != nil {
			t.quarantine(err)
		}
	}
	return t.led.Replay()
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.metrics.addError()
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// intParam parses a non-negative integer query parameter; -1 means the
// parameter is absent.
func intParam(r *http.Request, name string) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("query parameter %s=%q is not a non-negative integer", name, v)
	}
	return n, nil
}
