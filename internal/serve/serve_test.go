package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"daasscale/internal/fsio"
	"daasscale/internal/ledger"
	"daasscale/internal/loop"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// snapFor synthesizes one interval of plausible telemetry: a sinusoidal
// load swing wide enough that the auto-scaler actually changes containers
// over the stream. Deterministic in i alone, so every test (and both
// sides of a determinism comparison) sees the same stream.
func snapFor(i int) telemetry.Snapshot {
	load := 80 + 60*math.Sin(float64(i)/5)
	util := 0.3 + 0.4*(load/140)
	return telemetry.Snapshot{
		Interval:        i,
		Container:       "B2",
		Step:            2,
		Cost:            2,
		Utilization:     resource.Vector{util, util * 0.8, util * 0.5, util * 0.3},
		UtilizationPeak: resource.Vector{util * 1.2, util, util * 0.7, util * 0.4},
		WaitMs: [telemetry.NumWaitClasses]float64{
			load * 12, load * 5, load * 3, load, 40, 10, 5,
		},
		AvgLatencyMs:   20 + load/4,
		P95LatencyMs:   60 + load,
		Transactions:   load * 300,
		OfferedRPS:     load,
		MemoryUsedMB:   700 + load,
		PhysicalReads:  load * 8,
		PhysicalWrites: load * 2,
	}
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{LedgerDir: t.TempDir()}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post sends one ingest request and decodes the reply.
func post(t *testing.T, s *Server, tenant string, body interface{}) (ingestReply, int) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/tenants/"+tenant+"/telemetry", bytes.NewReader(buf))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	var reply ingestReply
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatalf("bad ingest reply %q: %v", w.Body.String(), err)
	}
	return reply, w.Code
}

func postSnaps(t *testing.T, s *Server, tenant string, snaps ...telemetry.Snapshot) ingestReply {
	t.Helper()
	batch := make([]wireSnapshot, len(snaps))
	for i, sn := range snaps {
		batch[i] = wireSnapshot{Snapshot: sn}
	}
	reply, code := post(t, s, tenant, map[string]interface{}{"batch": batch})
	if code != http.StatusOK {
		t.Fatalf("ingest status %d (reply %+v)", code, reply)
	}
	return reply
}

func get(t *testing.T, s *Server, path string, out interface{}) int {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("bad reply %q: %v", w.Body.String(), err)
		}
	}
	return w.Code
}

func TestServeIngestAndQuery(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Close()

	const n = 30
	for i := 0; i < n; i++ {
		reply := postSnaps(t, s, "acme", snapFor(i))
		if reply.Accepted != 1 || reply.NextSeq != i+1 {
			t.Fatalf("interval %d: reply %+v", i, reply)
		}
	}

	var decs decisionsReply
	if code := get(t, s, "/v1/tenants/acme/decisions", &decs); code != http.StatusOK {
		t.Fatalf("decisions status %d", code)
	}
	if len(decs.Decisions) != n {
		t.Fatalf("got %d decisions, want %d", len(decs.Decisions), n)
	}
	for i, d := range decs.Decisions {
		if d.Interval != i || d.Tenant != "acme" || !d.Observed {
			t.Fatalf("decision %d: %+v", i, d)
		}
	}

	// since/limit slicing.
	var tail decisionsReply
	get(t, s, "/v1/tenants/acme/decisions?since=25", &tail)
	if len(tail.Decisions) != 5 || tail.Decisions[0].Interval != 25 {
		t.Fatalf("since=25: %+v", tail.Decisions)
	}
	var last decisionsReply
	get(t, s, "/v1/tenants/acme/decisions?limit=3", &last)
	if len(last.Decisions) != 3 || last.Decisions[0].Interval != 27 {
		t.Fatalf("limit=3: %+v", last.Decisions)
	}

	var bill billReply
	if code := get(t, s, "/v1/tenants/acme/bill", &bill); code != http.StatusOK {
		t.Fatalf("bill status %d", code)
	}
	if len(bill.LineItems) != n {
		t.Fatalf("got %d line items, want %d", len(bill.LineItems), n)
	}
	wantCost := 0.0
	for i := 0; i < n; i++ {
		wantCost += snapFor(i).Cost
	}
	if math.Abs(bill.TotalCost-wantCost) > 1e-9 {
		t.Fatalf("bill total %v, want %v", bill.TotalCost, wantCost)
	}

	var health struct {
		Status  string `json:"status"`
		Tenants int    `json:"tenants"`
	}
	get(t, s, "/healthz", &health)
	if health.Status != "ok" || health.Tenants != 1 {
		t.Fatalf("healthz %+v", health)
	}

	var m MetricsSnapshot
	get(t, s, "/metrics", &m)
	if m.IngestedSnapshots != n || m.Decisions != n || m.Ledger.Records != 2*n {
		t.Fatalf("metrics %+v", m)
	}
	if m.DecisionLatency.Count != n || m.DecisionLatency.P95Ms < 0 {
		t.Fatalf("decision latency %+v", m.DecisionLatency)
	}
}

func TestServeIdempotency(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Close()

	for i := 0; i < 10; i++ {
		postSnaps(t, s, "a", snapFor(i))
	}
	// Resend the whole prefix, plus a duplicate inside one batch.
	reply := postSnaps(t, s, "a", snapFor(3), snapFor(3), snapFor(7))
	if reply.Accepted != 0 || reply.Duplicates != 3 || reply.NextSeq != 10 {
		t.Fatalf("resend reply %+v", reply)
	}
	// A duplicate of a buffered future snapshot is also a no-op.
	r1 := postSnaps(t, s, "a", snapFor(12))
	if r1.Buffered != 1 {
		t.Fatalf("future buffer reply %+v", r1)
	}
	r2 := postSnaps(t, s, "a", snapFor(12))
	if r2.Duplicates != 1 || r2.Buffered != 0 {
		t.Fatalf("buffered duplicate reply %+v", r2)
	}

	var decs decisionsReply
	get(t, s, "/v1/tenants/a/decisions", &decs)
	if len(decs.Decisions) != 10 {
		t.Fatalf("duplicates decided: %d decisions", len(decs.Decisions))
	}
}

func TestServeReorder(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Close()

	// Deterministic permutation: swap pairs within the reorder window.
	order := make([]int, 20)
	for i := range order {
		order[i] = i
	}
	for i := 0; i+1 < len(order); i += 2 {
		order[i], order[i+1] = order[i+1], order[i]
	}
	accepted, buffered := 0, 0
	for _, seq := range order {
		r := postSnaps(t, s, "a", snapFor(seq))
		accepted += r.Accepted
		buffered += r.Buffered
	}
	if accepted != 20 || buffered != 10 {
		t.Fatalf("accepted %d buffered %d", accepted, buffered)
	}
	var decs decisionsReply
	get(t, s, "/v1/tenants/a/decisions", &decs)
	if len(decs.Decisions) != 20 {
		t.Fatalf("%d decisions", len(decs.Decisions))
	}
	for i, d := range decs.Decisions {
		if d.Interval != i || !d.Observed {
			t.Fatalf("decision %d out of order or withheld: %+v", i, d)
		}
	}
}

func TestServeGapFlush(t *testing.T) {
	window := 4
	s := newTestServer(t, func(c *Config) { c.ReorderWindow = window })
	defer s.Close()

	postSnaps(t, s, "a", snapFor(0), snapFor(1))
	// Never send 2. Buffer 3..6 (window not exceeded), then 7 overflows
	// and forces the gap at 2 to be decided as withheld.
	var last ingestReply
	for seq := 3; seq <= 7; seq++ {
		last = postSnaps(t, s, "a", snapFor(seq))
	}
	if last.Gaps != 1 || last.NextSeq != 8 || last.BufferDepth != 0 {
		t.Fatalf("overflow reply %+v", last)
	}

	var decs decisionsReply
	get(t, s, "/v1/tenants/a/decisions", &decs)
	if len(decs.Decisions) != 8 {
		t.Fatalf("%d decisions", len(decs.Decisions))
	}
	gap := decs.Decisions[2]
	if gap.Observed || gap.Changed || gap.Interval != 2 {
		t.Fatalf("gap decision %+v", gap)
	}
	if gap.Actual != gap.Target {
		t.Fatalf("gap decision moved the container: %+v", gap)
	}
	// The withheld interval still bills, at the running container's list
	// price (the container held through the gap).
	var bill billReply
	get(t, s, "/v1/tenants/a/bill", &bill)
	if len(bill.LineItems) != 8 {
		t.Fatalf("%d line items", len(bill.LineItems))
	}
	item := bill.LineItems[2]
	want, ok := s.cat.ByName(gap.Actual)
	if !ok {
		t.Fatalf("gap actual %q not in catalog", gap.Actual)
	}
	if item.Container != want.Name || item.Cost != want.Cost {
		t.Fatalf("gap line item %+v, want container %s cost %v", item, want.Name, want.Cost)
	}

	// The gap's real snapshot arriving late is now a duplicate.
	r := postSnaps(t, s, "a", snapFor(2))
	if r.Duplicates != 1 || r.Accepted != 0 {
		t.Fatalf("late gap snapshot reply %+v", r)
	}
}

func TestServeRateLimit(t *testing.T) {
	clock := time.Unix(1000, 0)
	s := newTestServer(t, func(c *Config) {
		c.RatePerSec = 1
		c.Burst = 2
		c.Now = func() time.Time { return clock }
	})
	defer s.Close()

	postSnaps(t, s, "a", snapFor(0), snapFor(1)) // drains the burst
	reply, code := post(t, s, "a", wireSnapshot{Snapshot: snapFor(2)})
	if code != http.StatusTooManyRequests || reply.RateLimited != 1 || reply.Accepted != 0 {
		t.Fatalf("status %d reply %+v", code, reply)
	}
	// A different tenant has its own bucket.
	if r := postSnaps(t, s, "b", snapFor(0)); r.Accepted != 1 {
		t.Fatalf("tenant b throttled by tenant a: %+v", r)
	}
	// Time refills the bucket.
	clock = clock.Add(3 * time.Second)
	if r := postSnaps(t, s, "a", snapFor(2)); r.Accepted != 1 {
		t.Fatalf("post-refill reply %+v", r)
	}
	var m MetricsSnapshot
	get(t, s, "/metrics", &m)
	if m.RateLimited != 1 {
		t.Fatalf("metrics rate_limited %d", m.RateLimited)
	}
}

func TestServeSanitizesTelemetry(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Close()

	postSnaps(t, s, "a", snapFor(0))
	// JSON cannot carry NaN/Inf, but negative counters travel fine — and
	// SanitizeSnapshot clamps them to zero before the policy observes them.
	bad := snapFor(1)
	bad.P95LatencyMs = -5
	bad.Transactions = -1
	postSnaps(t, s, "a", bad)

	var m MetricsSnapshot
	get(t, s, "/metrics", &m)
	if m.SanitizedFields != 2 {
		t.Fatalf("sanitizer fired %d times, want 2: %+v", m.SanitizedFields, m)
	}
	// The ledger must hold the sanitized snapshot, not the raw wire bytes.
	var decs decisionsReply
	get(t, s, "/v1/tenants/a/decisions", &decs)
	got := decs.Decisions[1].Snapshot
	if got.P95LatencyMs != 0 || got.Transactions != 0 {
		t.Fatalf("unsanitized snapshot reached the ledger: %+v", got)
	}
}

func TestServeBadRequests(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Close()

	longID := ""
	for i := 0; i < 65; i++ {
		longID += "x"
	}
	if _, code := post(t, s, longID, wireSnapshot{Snapshot: snapFor(0)}); code != http.StatusBadRequest {
		t.Fatalf("bad tenant id: status %d", code)
	}
	req := httptest.NewRequest("POST", "/v1/tenants/a/telemetry", bytes.NewReader([]byte("{nope")))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", w.Code)
	}
	if _, code := post(t, s, "a", map[string]interface{}{}); code != http.StatusBadRequest {
		t.Fatalf("empty body: status %d", code)
	}
	neg := -1
	if _, code := post(t, s, "a", wireSnapshot{Seq: &neg, Snapshot: snapFor(0)}); code != http.StatusBadRequest {
		t.Fatalf("negative seq: status %d", code)
	}
	if code := get(t, s, "/v1/tenants/ghost/decisions", nil); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d", code)
	}
}

// TestRefusedBatchDecidesNothing: a 400 is refused whole. A batch whose
// last seq is negative must neither decide its valid prefix nor create the
// tenant and its ledger.
func TestRefusedBatchDecidesNothing(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.SyncEvery = -1 })
	defer s.Close()

	neg := -1
	batch := []wireSnapshot{{Snapshot: snapFor(0)}, {Snapshot: snapFor(1)}, {Seq: &neg, Snapshot: snapFor(2)}}
	if reply, code := post(t, s, "acme", map[string]interface{}{"batch": batch}); code != http.StatusBadRequest || reply.NextSeq != 0 {
		t.Fatalf("status %d, reply %+v; want 400 acknowledging nothing", code, reply)
	}
	if code := get(t, s, "/v1/tenants/acme/decisions", nil); code != http.StatusNotFound {
		t.Fatalf("decisions after a refused batch: status %d, want 404", code)
	}
	if _, err := os.Stat(filepath.Join(s.cfg.LedgerDir, "acme"+ledgerExt)); !os.IsNotExist(err) {
		t.Fatalf("a refused batch created a ledger (stat error %v)", err)
	}
}

func TestServeMaxTenants(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxTenants = 2 })
	defer s.Close()

	postSnaps(t, s, "a", snapFor(0))
	postSnaps(t, s, "b", snapFor(0))
	if _, code := post(t, s, "c", wireSnapshot{Snapshot: snapFor(0)}); code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap tenant: status %d", code)
	}
	// Existing tenants still ingest.
	if r := postSnaps(t, s, "a", snapFor(1)); r.Accepted != 1 {
		t.Fatalf("existing tenant refused: %+v", r)
	}
}

// collectRecorder captures the live DecisionRecord stream via TeeRecorder.
type collectRecorder struct {
	recs []loop.DecisionRecord
}

func (c *collectRecorder) Record(r loop.DecisionRecord) { c.recs = append(c.recs, r) }

// TestServeReplayEqualsLive is the serving half of the ledger's core
// property: under duplicated, reordered, batched ingest, the replayed
// ledger is byte-identical to the decision stream the loop emitted live.
func TestServeReplayEqualsLive(t *testing.T) {
	live := &collectRecorder{}
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) {
		c.LedgerDir = dir
		c.TeeRecorder = func(id string) loop.Recorder { return live }
	})
	defer s.Close()

	// Adversarial but in-window ingest: pair-swapped order, every third
	// snapshot sent twice, varying batch sizes.
	var batch []telemetry.Snapshot
	flush := func() {
		if len(batch) > 0 {
			postSnaps(t, s, "a", batch...)
			batch = batch[:0]
		}
	}
	order := make([]int, 60)
	for i := range order {
		order[i] = i
	}
	for i := 0; i+1 < len(order); i += 2 {
		order[i], order[i+1] = order[i+1], order[i]
	}
	for k, seq := range order {
		batch = append(batch, snapFor(seq))
		if seq%3 == 0 {
			batch = append(batch, snapFor(seq))
		}
		if len(batch) >= 1+k%5 {
			flush()
		}
	}
	flush()

	log, err := ledger.ReplayFS(fsio.OS, filepath.Join(dir, "a.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	replayed := log.Decisions()
	if len(replayed) != len(live.recs) || len(replayed) != 60 {
		t.Fatalf("replayed %d, live %d, want 60", len(replayed), len(live.recs))
	}
	for i := range replayed {
		lb := ledger.EncodeDecision(nil, &live.recs[i])
		rb := ledger.EncodeDecision(nil, &replayed[i])
		if !bytes.Equal(lb, rb) {
			t.Fatalf("decision %d: replay differs from live\nlive:   %+v\nreplay: %+v", i, live.recs[i], replayed[i])
		}
	}
	items := log.Items()
	if len(items) != 60 {
		t.Fatalf("%d line items", len(items))
	}
	for i, it := range items {
		if want := ledger.LineItemFor(live.recs[i]); it != want {
			t.Fatalf("line item %d: %+v want %+v", i, it, want)
		}
	}
}

// TestServeDeterministicLedger: two servers fed the same logical stream
// through different arrival orders and batch shapes write byte-identical
// ledger files.
func TestServeDeterministicLedger(t *testing.T) {
	run := func(dir string, variant int) {
		s := newTestServer(t, func(c *Config) { c.LedgerDir = dir })
		order := make([]int, 40)
		for i := range order {
			order[i] = i
		}
		if variant == 1 {
			for i := 0; i+1 < len(order); i += 2 {
				order[i], order[i+1] = order[i+1], order[i]
			}
		}
		for k, seq := range order {
			snaps := []telemetry.Snapshot{snapFor(seq)}
			if variant == 1 && k%4 == 0 {
				snaps = append(snaps, snapFor(seq)) // duplicates
			}
			postSnaps(t, s, "a", snaps...)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	d0, d1 := t.TempDir(), t.TempDir()
	run(d0, 0)
	run(d1, 1)
	b0, err := os.ReadFile(filepath.Join(d0, "a.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(filepath.Join(d1, "a.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b0, b1) {
		t.Fatalf("ledgers differ across ingest shapes: %d vs %d bytes", len(b0), len(b1))
	}
}

func TestServeDrainFlushesBuffered(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) { c.LedgerDir = dir })

	// 0..4 decided; 7..9 buffered behind the missing 5 and 6.
	for i := 0; i < 5; i++ {
		postSnaps(t, s, "a", snapFor(i))
	}
	postSnaps(t, s, "a", snapFor(7), snapFor(8), snapFor(9))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := ledger.ReplayFS(fsio.OS, filepath.Join(dir, "a.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	decs := log.Decisions()
	if len(decs) != 10 {
		t.Fatalf("drained to %d decisions, want 10", len(decs))
	}
	for i, d := range decs {
		if d.Interval != i {
			t.Fatalf("decision %d has interval %d", i, d.Interval)
		}
		wantObserved := i < 5 || i > 6
		if d.Observed != wantObserved {
			t.Fatalf("decision %d observed=%v", i, d.Observed)
		}
	}
	// Close is idempotent and further ingest is refused.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, code := post(t, s, "b", wireSnapshot{Snapshot: snapFor(0)}); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after drain: status %d", code)
	}
}

func TestServeRestartResume(t *testing.T) {
	dir := t.TempDir()

	s1 := newTestServer(t, func(c *Config) { c.LedgerDir = dir })
	for i := 0; i < 10; i++ {
		postSnaps(t, s1, "a", snapFor(i))
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, func(c *Config) { c.LedgerDir = dir })
	defer s2.Close()
	// A replayed-at-least-once sender resends the tail it never saw acked.
	reply := postSnaps(t, s2, "a", snapFor(8), snapFor(9), snapFor(10), snapFor(11))
	if reply.Duplicates != 2 || reply.Accepted != 2 || reply.NextSeq != 12 {
		t.Fatalf("resume reply %+v", reply)
	}

	log, err := ledger.ReplayFS(fsio.OS, filepath.Join(dir, "a.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	decs := log.Decisions()
	if len(decs) != 12 {
		t.Fatalf("%d decisions after restart, want 12", len(decs))
	}
	for i, d := range decs {
		if d.Interval != i {
			t.Fatalf("decision %d has interval %d (re-billed?)", i, d.Interval)
		}
	}
	// The resumed loop continues from the container the tenant was left
	// in, not the catalog floor.
	if decs[10].Actual != decs[9].Target {
		t.Fatalf("restart lost the running container: %q then %q", decs[9].Target, decs[10].Actual)
	}
}

// TestServeRestartAfterTornWrite: a crash mid-append leaves a torn ledger
// tail; the restarted server truncates it and re-decides the lost
// interval when the sender retries.
func TestServeRestartAfterTornWrite(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, func(c *Config) { c.LedgerDir = dir })
	for i := 0; i < 6; i++ {
		postSnaps(t, s1, "a", snapFor(i))
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop 3 bytes off the file.
	path := filepath.Join(dir, "a.ledger")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, func(c *Config) { c.LedgerDir = dir })
	defer s2.Close()
	// The torn record was interval 5's line item; the decision for 5 is
	// intact, so the watermark still resumes at 6 and the sender's retry
	// of 5 is a duplicate.
	reply := postSnaps(t, s2, "a", snapFor(5), snapFor(6))
	if reply.Duplicates != 1 || reply.Accepted != 1 {
		t.Fatalf("post-tear reply %+v", reply)
	}
	log, err := ledger.ReplayFS(fsio.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Fatalf("torn tail not healed on reopen")
	}
	if tail := log.Tail(); tail.Unbilled || tail.Last.Interval != 6 {
		t.Fatalf("tail %+v, want billed interval 6", tail)
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	b := newTokenBucket(2, 3, now)
	for i := 0; i < 3; i++ {
		if !b.allow(now) {
			t.Fatalf("burst token %d refused", i)
		}
	}
	if b.allow(now) {
		t.Fatal("empty bucket allowed")
	}
	now = now.Add(500 * time.Millisecond) // +1 token at 2/s
	if !b.allow(now) {
		t.Fatal("refilled token refused")
	}
	if b.allow(now) {
		t.Fatal("over-refill allowed")
	}
	// Refill never exceeds the burst.
	now = now.Add(time.Hour)
	granted := 0
	for b.allow(now) {
		granted++
	}
	if granted != 3 {
		t.Fatalf("granted %d after long idle, want burst 3", granted)
	}
	// A nil bucket (unlimited) always allows.
	var nb *tokenBucket
	if !nb.allow(now) {
		t.Fatal("nil bucket refused")
	}
}

func TestServeConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing LedgerDir accepted")
	}
	if _, err := New(Config{LedgerDir: filepath.Join(t.TempDir(), "nested", "dir")}); err != nil {
		t.Fatalf("nested ledger dir: %v", err)
	}
}

// noSyncFS is the real filesystem without fsyncs: what a resident tenant
// costs the heap does not depend on them, and skipping them keeps a
// thousand-tenant test fast.
type noSyncFS struct{ fsio.FS }

func (n noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	f, err := n.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ fsio.File }

func (noSyncFile) Sync() error { return nil }

// TestResidentBytesPerTenant bounds what a resident tenant holds between
// requests: the live heap grown by N more tenants, each opened and fed a
// 20-snapshot batch, divided by N. A ledger writer that owned its write
// buffer for the tenant's life held about 70 KB here.
func TestResidentBytesPerTenant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	const n = 500
	s, err := New(Config{LedgerDir: t.TempDir(), FS: noSyncFS{fsio.OS}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := batchBody(t, 0, 20)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle empties sync.Pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var base uint64
	for i := 0; i < 2*n; i++ {
		if i == n {
			base = heap()
		}
		if code, reply := call(s, "POST", "/v1/tenants/"+tenantName(i)+"/telemetry", body); code != http.StatusOK {
			t.Fatalf("tenant %d: status %d: %s", i, code, reply)
		}
	}
	perTenant := float64(heap()-base) / n / 1024
	t.Logf("%.1f KB per resident tenant", perTenant)
	if perTenant > 16 {
		t.Fatalf("%.1f KB per resident tenant, want at most 16", perTenant)
	}
}
