package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"daasscale/internal/diskfaults"
	"daasscale/internal/fsio"
	"daasscale/internal/ledger"
)

// fakeClock is an injectable, manually-advanced clock for probe pacing
// and rate-limit tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// faultServer builds a server on a crash-simulating MemFS behind a fault
// injector, with a fake clock.
func faultServer(t *testing.T, mutate func(*Config)) (*Server, *diskfaults.MemFS, *diskfaults.FS, *fakeClock) {
	t.Helper()
	mem := diskfaults.NewMemFS()
	ffs := diskfaults.Wrap(mem, diskfaults.Plan{})
	clock := newFakeClock()
	cfg := Config{
		LedgerDir:     "/led",
		FS:            ffs,
		ProbeInterval: 5 * time.Second,
		Now:           clock.Now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, mem, ffs, clock
}

// postRaw sends one ingest request and returns the raw recorder, for
// header assertions.
func postRaw(t *testing.T, s *Server, tenant string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/tenants/"+tenant+"/telemetry", bytes.NewReader(buf))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func ingestOne(t *testing.T, s *Server, tenant string, seq int) *httptest.ResponseRecorder {
	t.Helper()
	return postRaw(t, s, tenant, map[string]interface{}{"snapshot": snapFor(seq)})
}

func decodeReply(t *testing.T, w *httptest.ResponseRecorder) ingestReply {
	t.Helper()
	var reply ingestReply
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatalf("bad reply %q: %v", w.Body.String(), err)
	}
	return reply
}

// TestServeDegradedModeRefusesAndRecovers is the tentpole's serving
// contract end to end: a storage fault turns into a clean 503 with
// Retry-After (never a 200 whose data is lost), health and metrics
// report the quarantine, reads still serve the durable record, and a
// successful probe re-admits the tenant.
func TestServeDegradedModeRefusesAndRecovers(t *testing.T) {
	s, _, ffs, clock := faultServer(t, nil)
	defer s.Close()

	for i := 0; i < 5; i++ {
		if w := ingestOne(t, s, "acme", i); w.Code != http.StatusOK {
			t.Fatalf("clean ingest %d: status %d", i, w.Code)
		}
	}

	// Break the disk and send interval 5.
	ffs.SetPlan(diskfaults.Plan{Kind: diskfaults.KindEIO, Start: ffs.Ops(), Count: -1})
	w := ingestOne(t, s, "acme", 5)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("faulted ingest: status %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Retry-After"); got != "5" {
		t.Fatalf("degraded Retry-After = %q, want %q", got, "5")
	}
	if reply := decodeReply(t, w); reply.NextSeq != 0 || reply.Accepted != 0 {
		t.Fatalf("degraded reply acknowledged work: %+v", reply)
	}

	// Still degraded on an immediate retry (no probe before the interval
	// elapses), even though the disk is healthy again.
	ffs.SetPlan(diskfaults.Plan{})
	if w := ingestOne(t, s, "acme", 5); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("immediate retry: status %d, want 503", w.Code)
	}

	// Health and metrics report the quarantine.
	var health struct {
		Status      string   `json:"status"`
		Quarantined int      `json:"quarantined"`
		Tenants     []string `json:"quarantined_tenants"`
	}
	if code := get(t, s, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "degraded" || health.Quarantined != 1 || len(health.Tenants) != 1 || health.Tenants[0] != "acme" {
		t.Fatalf("healthz while degraded: %+v", health)
	}
	var ms MetricsSnapshot
	get(t, s, "/metrics", &ms)
	if ms.Storage.Quarantines != 1 || ms.Storage.QuarantinedNow != 1 || ms.Storage.Errors == 0 {
		t.Fatalf("storage metrics while degraded: %+v", ms.Storage)
	}

	// Reads still answer, correctly, from the durable record.
	var decs decisionsReply
	if code := get(t, s, "/v1/tenants/acme/decisions", &decs); code != http.StatusOK {
		t.Fatalf("decisions while degraded: status %d", code)
	}
	if len(decs.Decisions) != 5 {
		t.Fatalf("degraded decisions = %d, want the 5 durable ones", len(decs.Decisions))
	}

	// After the probe interval the next ingest probes, recovers, and is
	// accepted — the watermark resumes exactly where durability stopped.
	clock.advance(6 * time.Second)
	w = ingestOne(t, s, "acme", 5)
	if w.Code != http.StatusOK {
		t.Fatalf("post-recovery ingest: status %d (body %s)", w.Code, w.Body.String())
	}
	if reply := decodeReply(t, w); reply.Accepted != 1 || reply.NextSeq != 6 {
		t.Fatalf("post-recovery reply: %+v", reply)
	}
	for i := 6; i < 10; i++ {
		if w := ingestOne(t, s, "acme", i); w.Code != http.StatusOK {
			t.Fatalf("post-recovery ingest %d: status %d", i, w.Code)
		}
	}

	get(t, s, "/metrics", &ms)
	if ms.Storage.Recoveries != 1 || ms.Storage.QuarantinedNow != 0 || ms.Ledger.Seals != 1 {
		t.Fatalf("storage metrics after recovery: %+v ledger %+v", ms.Storage, ms.Ledger)
	}
	get(t, s, "/healthz", &health)
	if health.Status != "ok" || health.Quarantined != 0 {
		t.Fatalf("healthz after recovery: %+v", health)
	}

	// The full stream — across the sealed segment — verifies.
	checks, err := VerifyLedgers(ffs, "/led", map[string]int{"acme": 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 1 || checks[0].Decisions != 10 || checks[0].Segments != 2 {
		t.Fatalf("verify: %+v", checks)
	}
}

// TestServeQuarantinedDrainDoesNotHangOrAck is the SIGTERM-drain
// satellite: Close with a quarantined tenant must return promptly, must
// not step the poisoned pipeline, and must not make anything undurable
// look acknowledged.
func TestServeQuarantinedDrainDoesNotHangOrAck(t *testing.T) {
	s, _, ffs, _ := faultServer(t, func(c *Config) { c.ReorderWindow = 8 })

	for i := 0; i < 3; i++ {
		if w := ingestOne(t, s, "acme", i); w.Code != http.StatusOK {
			t.Fatalf("ingest %d: status %d", i, w.Code)
		}
	}
	// Park future snapshots in the reorder buffer (seq 3 missing).
	if w := postRaw(t, s, "acme", map[string]interface{}{"batch": []wireSnapshot{
		{Snapshot: snapFor(4)}, {Snapshot: snapFor(5)},
	}}); w.Code != http.StatusOK {
		t.Fatalf("buffering: status %d", w.Code)
	}
	// Poison on the gap fill.
	ffs.SetPlan(diskfaults.Plan{Kind: diskfaults.KindEIO, Start: ffs.Ops(), Count: -1})
	if w := ingestOne(t, s, "acme", 3); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("faulted ingest: status %d, want 503", w.Code)
	}

	// Drain with the disk still broken; must complete promptly and clean.
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close with quarantined tenant: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a quarantined tenant")
	}

	// Nothing past the durable prefix was acked or written: the ledger
	// holds exactly the three 200-acknowledged decisions.
	ffs.SetPlan(diskfaults.Plan{})
	checks, err := VerifyLedgers(ffs, "/led", map[string]int{"acme": 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 1 || checks[0].Decisions != 3 {
		t.Fatalf("verify after quarantined drain: %+v", checks)
	}
}

// TestServeResumeAcrossSealedSegments restarts the daemon over a ledger
// that was rotated by a recovery and checks the watermark and decision
// stream span the seal boundary.
func TestServeResumeAcrossSealedSegments(t *testing.T) {
	s, mem, ffs, clock := faultServer(t, nil)
	for i := 0; i < 4; i++ {
		if w := ingestOne(t, s, "acme", i); w.Code != http.StatusOK {
			t.Fatalf("ingest %d: status %d", i, w.Code)
		}
	}
	ffs.SetPlan(diskfaults.Plan{Kind: diskfaults.KindEIO, Start: ffs.Ops(), Count: 1})
	if w := ingestOne(t, s, "acme", 4); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("faulted ingest: status %d", w.Code)
	}
	clock.advance(6 * time.Second)
	if w := ingestOne(t, s, "acme", 4); w.Code != http.StatusOK {
		t.Fatalf("recovered ingest: status %d", w.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Fresh daemon, same (now multi-segment) storage.
	clock2 := newFakeClock()
	s2, err := New(Config{LedgerDir: "/led", FS: ffs, Now: clock2.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	w := ingestOne(t, s2, "acme", 4)
	if reply := decodeReply(t, w); w.Code != http.StatusOK || reply.Duplicates != 1 {
		t.Fatalf("resumed duplicate: status %d reply %+v", w.Code, reply)
	}
	w = ingestOne(t, s2, "acme", 5)
	if reply := decodeReply(t, w); w.Code != http.StatusOK || reply.NextSeq != 6 {
		t.Fatalf("resumed accept: status %d reply %+v", w.Code, reply)
	}
	var decs decisionsReply
	get(t, s2, "/v1/tenants/acme/decisions", &decs)
	if len(decs.Decisions) != 6 {
		t.Fatalf("resumed decisions = %d, want 6", len(decs.Decisions))
	}
	_ = mem
}

// TestRetryAfter429FromBucket pins the satellite: the 429's Retry-After
// is derived from the token bucket's actual refill time.
func TestRetryAfter429FromBucket(t *testing.T) {
	clock := newFakeClock()
	s := newTestServer(t, func(c *Config) {
		c.RatePerSec = 0.25 // one token per 4s: refill clearly > 1s
		c.Burst = 2
		c.Now = clock.Now
	})
	defer s.Close()

	w := postRaw(t, s, "acme", map[string]interface{}{"batch": []wireSnapshot{
		{Snapshot: snapFor(0)}, {Snapshot: snapFor(1)}, {Snapshot: snapFor(2)},
	}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra != 4 {
		t.Fatalf("Retry-After = %q, want \"4\" (1 token at 0.25/s)", w.Header().Get("Retry-After"))
	}
	reply := decodeReply(t, w)
	if reply.Accepted != 2 || reply.RateLimited != 1 || reply.NextSeq != 2 || reply.RetryAfterSec != 4 {
		t.Fatalf("429 reply: %+v", reply)
	}
	// The 429's NextSeq is an authoritative ack: both accepted snapshots
	// are durable.
	log, err := ledger.ReplayFS(fsio.OS, s.cfg.LedgerDir+"/acme.ledger")
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Decisions()) != 2 {
		t.Fatalf("durable decisions after 429 = %d, want 2", len(log.Decisions()))
	}
}

// TestRunLoadHonorsRetryAfter drives RunLoad against a stub that refuses
// twice (429 then 503, both with Retry-After) before accepting, and
// checks the retries happen with the advertised (capped) backoff.
func TestRunLoadHonorsRetryAfter(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		switch n {
		case 1:
			w.Header().Set("Retry-After", "3") // capped to maxRetrySleep
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(ingestReply{Tenant: "t00000", ingestCounts: ingestCounts{RateLimited: 1, RetryAfterSec: 3}})
		case 2:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(ingestReply{Tenant: "t00000", Error: "degraded"})
		default:
			json.NewEncoder(w).Encode(ingestReply{Tenant: "t00000", ingestCounts: ingestCounts{Accepted: 5, NextSeq: 5}})
		}
	}))
	defer srv.Close()

	var slept []time.Duration
	res, err := RunLoad(context.Background(), LoadSpec{
		BaseURL:   srv.URL,
		Tenants:   1,
		Snapshots: 5,
		Batch:     5,
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 5 || res.Errors != 0 || res.Throttled != 1 || res.Degraded != 1 || res.Retries != 2 {
		t.Fatalf("result: %+v", res)
	}
	if res.Acked["t00000"] != 5 {
		t.Fatalf("acked: %+v", res.Acked)
	}
	if len(slept) != 2 || slept[0] != maxRetrySleep || slept[1] != time.Second {
		t.Fatalf("backoffs: %v, want [%v %v]", slept, maxRetrySleep, time.Second)
	}
}

// TestRunLoadGivesUpAfterRetryBudget pins the bounded-retry contract: a
// permanently degraded server costs one error per batch, not a hang.
func TestRunLoadGivesUpAfterRetryBudget(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(ingestReply{Error: "degraded"})
	}))
	defer srv.Close()

	res, err := RunLoad(context.Background(), LoadSpec{
		BaseURL:    srv.URL,
		Tenants:    1,
		Snapshots:  4,
		Batch:      4,
		MaxRetries: 2,
		Sleep:      func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 1 || res.Retries != 2 || res.Degraded != 3 || res.Accepted != 0 {
		t.Fatalf("result: %+v", res)
	}
	if len(res.Acked) != 0 {
		t.Fatalf("permanently degraded run acked something: %+v", res.Acked)
	}
}
