package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"daasscale/internal/diskfaults"
	"daasscale/internal/fsio"
	"daasscale/internal/ledger"
)

// countFS counts the filesystem calls restart recovery is specified in:
// directory listings, whole-file reads, opens, reads through a handle and
// fsyncs. hold, when set, is called before every OpenFile — the seam the
// concurrency tests block one tenant's open at.
type countFS struct {
	fsio.FS
	hold func(name string)

	mu        sync.Mutex
	readDirs  int
	syncs     int
	readFiles map[string]int // ReadFile calls per path
	opens     map[string]int // OpenFile calls per path
	reads     map[string]int // File.Read calls per path
}

func newCountFS(inner fsio.FS) *countFS {
	return &countFS{FS: inner, readFiles: map[string]int{}, opens: map[string]int{}, reads: map[string]int{}}
}

func (c *countFS) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readDirs, c.syncs = 0, 0
	c.readFiles, c.opens, c.reads = map[string]int{}, map[string]int{}, map[string]int{}
}

func (c *countFS) ReadDir(name string) ([]os.DirEntry, error) {
	c.mu.Lock()
	c.readDirs++
	c.mu.Unlock()
	return c.FS.ReadDir(name)
}

func (c *countFS) ReadFile(name string) ([]byte, error) {
	c.mu.Lock()
	c.readFiles[name]++
	c.mu.Unlock()
	return c.FS.ReadFile(name)
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	c.mu.Lock()
	c.opens[name]++
	c.mu.Unlock()
	if c.hold != nil {
		c.hold(name)
	}
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, name: name}, nil
}

type countFile struct {
	fsio.File
	fs   *countFS
	name string
}

func (f *countFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.reads[f.name]++
	f.fs.mu.Unlock()
	return f.File.Read(p)
}

func (f *countFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	return f.File.Sync()
}

func (c *countFS) counts() (readDirs, syncs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readDirs, c.syncs
}

func tenantName(i int) string { return fmt.Sprintf("t%04d", i) }

// buildLedgers writes n tenants × intervals decisions into /led of a fresh
// MemFS through a Server; every fifth tenant's ledger is then rotated
// once, so the directory holds sealed segments too. It returns the
// filesystem and the number of segment files.
func buildLedgers(t *testing.T, n, intervals int) (*diskfaults.MemFS, int) {
	t.Helper()
	mem := diskfaults.NewMemFS()
	s, err := New(Config{LedgerDir: "/led", SyncEvery: -1, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < intervals; k++ {
			postSnaps(t, s, tenantName(i), snapFor(k))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segments := n
	for i := 0; i < n; i += 5 {
		w, err := ledger.OpenWriterFS(mem, "/led/"+tenantName(i)+ledgerExt)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segments++
	}
	return mem, segments
}

// TestRecoveryIOCounts pins the cost of a restart: one directory listing
// per daemon and one read per segment, whatever the tenant count, and a
// query that lists nothing.
func TestRecoveryIOCounts(t *testing.T) {
	for _, n := range []int{20, 200} {
		t.Run(fmt.Sprintf("tenants=%d", n), func(t *testing.T) {
			const intervals = 3
			mem, segments := buildLedgers(t, n, intervals)
			cfs := newCountFS(mem)
			s, err := New(Config{LedgerDir: "/led", SyncEvery: -1, FS: cfs})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < n; i++ { // the benchmark's touch: one duplicate POST
				if r := postSnaps(t, s, tenantName(i), snapFor(0)); r.Duplicates != 1 || r.NextSeq != intervals {
					t.Fatalf("touch %s: %+v", tenantName(i), r)
				}
			}
			if rd, syncs := cfs.counts(); rd != 1 || syncs != 0 {
				t.Fatalf("cold start + touching %d tenants: %d ReadDir, %d fsyncs; want 1, 0", n, rd, syncs)
			}
			read := 0
			for i := 0; i < n; i++ {
				active := "/led/" + tenantName(i) + ledgerExt
				if cfs.opens[active] != 1 || cfs.reads[active] != 1 || cfs.readFiles[active] != 0 {
					t.Fatalf("%s: %d opens, %d handle reads, %d ReadFile; want 1, 1, 0", active, cfs.opens[active], cfs.reads[active], cfs.readFiles[active])
				}
				read++
			}
			for path, k := range cfs.readFiles {
				if k != 1 || !strings.Contains(path, ".seal-") {
					t.Fatalf("ReadFile(%s) ×%d during recovery; want sealed segments only, once each", path, k)
				}
				read++
			}
			if read != segments {
				t.Fatalf("read %d segments, the directory holds %d", read, segments)
			}

			cfs.reset()
			var bill billReply
			if code := get(t, s, "/v1/tenants/"+tenantName(0)+"/bill", &bill); code != http.StatusOK || len(bill.LineItems) != intervals {
				t.Fatalf("GET bill: status %d, %d items", code, len(bill.LineItems))
			}
			if code := get(t, s, "/v1/tenants/"+tenantName(1)+"/decisions?limit=2", nil); code != http.StatusOK {
				t.Fatalf("GET decisions: status %d", code)
			}
			if rd, syncs := cfs.counts(); rd != 0 || syncs != 0 {
				t.Fatalf("two GETs of clean tenants: %d ReadDir, %d fsyncs; want 0, 0", rd, syncs)
			}
			// t0000 was rotated: its GET read the seal and the active segment,
			// t0001's only the active one — each once.
			if len(cfs.readFiles) != 3 {
				t.Fatalf("GETs read %v; want 3 segments once each", cfs.readFiles)
			}
		})
	}
}

// TestSyncOnlyWhenPending: a request that appends nothing fsyncs nothing.
func TestSyncOnlyWhenPending(t *testing.T) {
	cfs := newCountFS(diskfaults.NewMemFS())
	s, err := New(Config{LedgerDir: "/led", SyncEvery: -1, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	postSnaps(t, s, "t1", snapFor(0))
	step := func(what string, want int, do func()) {
		t.Helper()
		cfs.reset()
		do()
		if _, syncs := cfs.counts(); syncs != want {
			t.Fatalf("%s: %d fsyncs, want %d", what, syncs, want)
		}
	}
	step("accepting POST", 1, func() { postSnaps(t, s, "t1", snapFor(1)) })
	step("duplicate POST", 0, func() { postSnaps(t, s, "t1", snapFor(1)) })
	step("GET bill", 0, func() { get(t, s, "/v1/tenants/t1/bill", nil) })
	step("GET decisions", 0, func() { get(t, s, "/v1/tenants/t1/decisions", nil) })
	step("accepting POST after reads", 1, func() { postSnaps(t, s, "t1", snapFor(2)) })
	step("buffered future POST", 0, func() { postSnaps(t, s, "t1", snapFor(5)) })
}

// TestReadsAfterRestart: a restarted daemon answers a tenant's bill and
// decision trail from its ledger before any POST re-opens it; an id with
// no ledger stays 404 and creates nothing; MaxTenants still caps.
func TestReadsAfterRestart(t *testing.T) {
	mem, _ := buildLedgers(t, 3, 4)
	// t0002: a crash between a rotation's rename and the fresh create
	// leaves only the sealed segment.
	if err := mem.Rename("/led/t0002.ledger", "/led/t0002.ledger.seal-000001"); err != nil {
		t.Fatal(err)
	}
	before, _ := mem.ReadDir("/led")

	s, err := New(Config{LedgerDir: "/led", FS: mem, MaxTenants: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, id := range []string{"nobody", "t0002.ledger.seal-000001", "bad%20id"} {
		if code := get(t, s, "/v1/tenants/"+id+"/bill", nil); code != http.StatusNotFound {
			t.Fatalf("GET bill of %q: status %d, want 404", id, code)
		}
		if code := get(t, s, "/v1/tenants/"+id+"/decisions", nil); code != http.StatusNotFound {
			t.Fatalf("GET decisions of %q: status %d, want 404", id, code)
		}
	}
	if after, _ := mem.ReadDir("/led"); len(after) != len(before) {
		t.Fatalf("404 reads changed the ledger directory: %d entries, was %d", len(after), len(before))
	}
	for _, id := range []string{"t0000", "t0001", "t0002"} { // rotated, plain, seal only
		var bill billReply
		if code := get(t, s, "/v1/tenants/"+id+"/bill", &bill); code != http.StatusOK || len(bill.LineItems) != 4 {
			t.Fatalf("GET bill of %s before any POST: status %d, %d items; want 200, 4", id, code, len(bill.LineItems))
		}
		var decs decisionsReply
		if code := get(t, s, "/v1/tenants/"+id+"/decisions?since=2", &decs); code != http.StatusOK || len(decs.Decisions) != 2 {
			t.Fatalf("GET decisions of %s: status %d, %d decisions; want 200, 2", id, code, len(decs.Decisions))
		}
	}
	if r := postSnaps(t, s, "t0002", snapFor(4)); r.Accepted != 1 || r.NextSeq != 5 {
		t.Fatalf("ingest after a read-opened resume: %+v", r)
	}

	// The cap counts read-opened tenants like ingest-opened ones.
	capped, err := New(Config{LedgerDir: "/led", FS: mem, MaxTenants: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
	if code := get(t, capped, "/v1/tenants/t0000/bill", nil); code != http.StatusOK {
		t.Fatalf("first read under MaxTenants=1: status %d", code)
	}
	req := httptest.NewRequest("GET", "/v1/tenants/t0001/bill", nil)
	w := httptest.NewRecorder()
	capped.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("second read under MaxTenants=1: status %d, Retry-After %q; want 503 with a hint", w.Code, w.Header().Get("Retry-After"))
	}
}

func TestIntParam(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Close()
	for k := 0; k < 10; k++ {
		postSnaps(t, s, "t1", snapFor(k))
	}
	for _, tc := range []struct {
		query string
		code  int
		want  int // decisions returned on 200
	}{
		{"", 200, 10},
		{"?limit=3", 200, 3},
		{"?limit=0", 200, 0},
		{"?limit=99", 200, 10},
		{"?since=7", 200, 3},
		{"?since=0", 200, 10},
		{"?since=4&limit=2", 200, 2},
		{"?limit=12abc", 400, 0},
		{"?limit=-1", 400, 0},
		{"?limit=1.5", 400, 0},
		{"?since=x", 400, 0},
		{"?since=-3", 400, 0},
		{"?since=2&limit=", 200, 8},
		{"?since=99999999999999999999", 400, 0},
	} {
		var decs decisionsReply
		code := get(t, s, "/v1/tenants/t1/decisions"+tc.query, &decs)
		if code != tc.code || len(decs.Decisions) != tc.want {
			t.Errorf("GET decisions%s: status %d with %d decisions; want %d with %d", tc.query, code, len(decs.Decisions), tc.code, tc.want)
		}
	}
	if code := get(t, s, "/v1/tenants/nobody/decisions?limit=x", nil); code != http.StatusBadRequest {
		t.Errorf("malformed query on an unknown tenant: status %d, want 400 before the lookup", code)
	}
}

// gate blocks OpenFile of one path until released.
type gate struct {
	path string
	// entered receives once per OpenFile of path. Buffered for the opens
	// that follow the release (a restart or a retry reopens the path):
	// nobody receives those, and they must not block on the send.
	entered  chan struct{}
	released chan struct{}
}

func newGate(path string) *gate {
	return &gate{path: path, entered: make(chan struct{}, 8), released: make(chan struct{})}
}

func (g *gate) hold(name string) {
	if name == g.path {
		g.entered <- struct{}{}
		<-g.released
	}
}

// within runs fn off the test goroutine and fails the test if it has not
// returned after five seconds — the "does not hang" half of every
// assertion below. fn must not call t.Fatal.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5s", what)
	}
}

// call issues one request and returns the status and the body; safe off
// the test goroutine.
func call(s *Server, method, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// ingestCode posts one snapshot and returns the status.
func ingestCode(s *Server, tenant string, seq int) int {
	body, _ := json.Marshal(map[string]interface{}{"snapshot": snapFor(seq)})
	code, _ := call(s, "POST", "/v1/tenants/"+tenant+"/telemetry", body)
	return code
}

// residentCount reads the tenant count /healthz reports.
func residentCount(t *testing.T, body []byte) int {
	t.Helper()
	var h struct {
		Tenants int `json:"tenants"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("bad /healthz reply %q: %v", body, err)
	}
	return h.Tenants
}

// TestOpenOutsideMapLock: while tenant A's ledger open is stuck in the
// filesystem, a resident tenant ingests, a cold one opens, /metrics and
// /healthz answer, and a second first touch of A waits for the one open
// instead of starting another.
func TestOpenOutsideMapLock(t *testing.T) {
	mem, _ := buildLedgers(t, 3, 2)
	g := newGate("/led/t0000.ledger")
	cfs := newCountFS(mem)
	cfs.hold = g.hold
	s, err := New(Config{LedgerDir: "/led", FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	if code := ingestCode(s, "t0001", 2); code != http.StatusOK { // B is resident
		t.Fatalf("opening B: status %d", code)
	}

	codes := make(chan int, 2)
	go func() { codes <- ingestCode(s, "t0000", 2) }()
	<-g.entered // A is opening, stuck in OpenFile
	go func() { codes <- ingestCode(s, "t0000", 2) }()

	var b, c, read, health, metrics int
	var healthBody []byte
	within(t, "B, C, a read, /healthz and /metrics beside A's open", func() {
		b = ingestCode(s, "t0001", 3) // resident
		c = ingestCode(s, "t0002", 2) // cold: opens meanwhile
		read, _ = call(s, "GET", "/v1/tenants/t0001/bill", nil)
		health, healthBody = call(s, "GET", "/healthz", nil)
		metrics, _ = call(s, "GET", "/metrics", nil)
	})
	for what, code := range map[string]int{"resident B": b, "cold C": c, "GET B's bill": read, "/healthz": health, "/metrics": metrics} {
		if code != http.StatusOK {
			t.Fatalf("%s beside A's open: status %d", what, code)
		}
	}
	if n := residentCount(t, healthBody); n != 2 {
		t.Fatalf("/healthz beside A's open counts %d tenants, want the 2 residents", n)
	}

	close(g.released)
	// One of the two touches of A accepted interval 2, the other found it a
	// duplicate; both are 200.
	if a1, a2 := <-codes, <-codes; a1 != http.StatusOK || a2 != http.StatusOK {
		t.Fatalf("the two first touches of A: status %d and %d", a1, a2)
	}
	if n := cfs.opens[g.path]; n != 1 {
		t.Fatalf("A's ledger was opened %d times by two concurrent first touches, want 1", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyLedgers(mem, "/led", map[string]int{"t0000": 3, "t0001": 4, "t0002": 3}); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDuringOpen: Close does not wait for an open stuck in the
// filesystem and does not touch its half-built tenant; the open, once it
// completes, finds the server draining, releases its handle and refuses.
func TestCloseDuringOpen(t *testing.T) {
	mem, _ := buildLedgers(t, 2, 2)
	g := newGate("/led/t0000.ledger")
	cfs := newCountFS(mem)
	cfs.hold = g.hold
	s, err := New(Config{LedgerDir: "/led", FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	if code := ingestCode(s, "t0001", 2); code != http.StatusOK {
		t.Fatalf("opening B: status %d", code)
	}
	opened := make(chan int, 1)
	go func() { opened <- ingestCode(s, "t0000", 2) }()
	<-g.entered
	var closeErr error
	within(t, "Close beside A's open", func() { closeErr = s.Close() })
	if closeErr != nil {
		t.Fatalf("Close: %v", closeErr)
	}
	close(g.released)
	if code := <-opened; code != http.StatusServiceUnavailable {
		t.Fatalf("A's first touch, completed after Close: status %d, want 503", code)
	}
	code, body := call(s, "GET", "/healthz", nil)
	if n := residentCount(t, body); code != http.StatusOK || n != 1 {
		t.Fatalf("/healthz after Close: status %d, %d tenants; want 200, 1", code, n)
	}
	if _, err := VerifyLedgers(mem, "/led", map[string]int{"t0000": 2, "t0001": 3}); err != nil {
		t.Fatal(err)
	}
}

// TestCloseTwiceDuringIngest: two Closes racing each other beside an
// in-flight POST both return nil without waiting for it, the POST is
// refused once its open completes, later requests are refused, and a third
// Close is a no-op.
func TestCloseTwiceDuringIngest(t *testing.T) {
	mem, _ := buildLedgers(t, 2, 2)
	g := newGate("/led/t0000.ledger")
	cfs := newCountFS(mem)
	cfs.hold = g.hold
	s, err := New(Config{LedgerDir: "/led", FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	if code := ingestCode(s, "t0001", 2); code != http.StatusOK {
		t.Fatalf("opening B: status %d", code)
	}
	inflight := make(chan int, 1)
	go func() { inflight <- ingestCode(s, "t0000", 2) }()
	<-g.entered
	var errA, errB error
	within(t, "two Closes beside an in-flight POST", func() {
		other := make(chan error)
		go func() { other <- s.Close() }()
		errA = s.Close()
		errB = <-other
	})
	if errA != nil || errB != nil {
		t.Fatalf("concurrent Closes: %v, %v", errA, errB)
	}
	close(g.released)
	if code := <-inflight; code != http.StatusServiceUnavailable {
		t.Fatalf("in-flight POST, completed after Close: status %d, want 503", code)
	}
	if code := ingestCode(s, "t0001", 3); code != http.StatusServiceUnavailable {
		t.Fatalf("POST after Close: status %d, want 503", code)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("third Close: %v", err)
	}
	if _, err := VerifyLedgers(mem, "/led", map[string]int{"t0000": 2, "t0001": 3}); err != nil {
		t.Fatal(err)
	}
}

// TestNoWriteAfterClose: a resident tenant's POST after Close is refused
// before it steps the loop, and stays refused once a probe interval has
// passed — a recovery probe would rotate a fresh segment open behind the
// closed server and ack writes nobody drains. Reads keep serving the
// durable prefix.
func TestNoWriteAfterClose(t *testing.T) {
	mem := diskfaults.NewMemFS()
	clock := newFakeClock()
	s, err := New(Config{LedgerDir: "/led", FS: mem, ProbeInterval: 5 * time.Second, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	if code := ingestCode(s, "t0000", 0); code != http.StatusOK {
		t.Fatalf("POST before Close: status %d", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, wait := range []time.Duration{0, 2 * s.probeInterval} {
		clock.advance(wait)
		if code := ingestCode(s, "t0000", 1); code != http.StatusServiceUnavailable {
			t.Fatalf("POST %d after Close: status %d, want 503", i, code)
		}
	}
	var bill billReply
	if code := get(t, s, "/v1/tenants/t0000/bill", &bill); code != http.StatusOK || len(bill.LineItems) != 1 {
		t.Fatalf("bill after Close: status %d, %d line items; want 200, 1", code, len(bill.LineItems))
	}
	ents, err := mem.ReadDir("/led")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "t0000"+ledgerExt {
		t.Fatalf("ledger directory after POSTs past Close holds %d entries, want the one active segment", len(ents))
	}
	if _, err := VerifyLedgers(mem, "/led", map[string]int{"t0000": 1}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedOpenIsRetried: an open that fails leaves no map entry — the
// next request opens again, and a listing failure fails New itself.
func TestFailedOpenIsRetried(t *testing.T) {
	mem, _ := buildLedgers(t, 1, 2)
	ffs := diskfaults.Wrap(mem, diskfaults.Plan{Kind: diskfaults.KindEIO, Count: -1, Mask: diskfaults.MaskOf(diskfaults.OpCreate)})
	s, err := New(Config{LedgerDir: "/led", FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code := ingestCode(s, "t0000", 2); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest with a failing open: status %d, want 503", code)
	}
	if code := get(t, s, "/v1/tenants/t0000/bill", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("read with a failing open: status %d, want 503", code)
	}
	if code := get(t, s, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz after failed opens: status %d", code)
	}
	ffs.SetPlan(diskfaults.Plan{})
	if code := ingestCode(s, "t0000", 2); code != http.StatusOK {
		t.Fatalf("ingest once the disk recovered: status %d, want 200", code)
	}

	if _, err := New(Config{LedgerDir: "/led", FS: noListFS{mem}}); err == nil {
		t.Fatal("New over an unlistable ledger directory returned nil")
	}
}

// noListFS fails every directory listing.
type noListFS struct{ fsio.FS }

func (noListFS) ReadDir(string) ([]os.DirEntry, error) { return nil, errors.New("readdir: injected") }
