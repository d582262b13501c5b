package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"daasscale/internal/diskfaults"
	"daasscale/internal/ledger"
	"daasscale/internal/loop"
)

// liveTracker is the sweep's ground-truth tee: per tenant, the LAST
// decision the live loop produced for each interval. After a quarantine
// the pipeline is rebuilt from disk and a lost interval is re-decided, so
// the live stream can carry several attempts for one interval; the
// durability contract is that what replay returns for interval i is
// byte-identical to the last attempt (earlier attempts were never acked
// and never survived).
type liveTracker struct {
	mu   sync.Mutex
	last map[string]map[int][]byte
}

func newLiveTracker() *liveTracker { return &liveTracker{last: map[string]map[int][]byte{}} }

func (l *liveTracker) recorder(id string) loop.Recorder { return trackerRec{l, id} }

func (l *liveTracker) lastFor(id string, interval int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last[id][interval]
}

type trackerRec struct {
	lt *liveTracker
	id string
}

func (r trackerRec) Record(d loop.DecisionRecord) {
	r.lt.mu.Lock()
	defer r.lt.mu.Unlock()
	m := r.lt.last[r.id]
	if m == nil {
		m = map[int][]byte{}
		r.lt.last[r.id] = m
	}
	m[d.Interval] = ledger.EncodeDecision(nil, &d)
}

// crashShape is one workload pattern the sweep runs: how snapshots are
// grouped into requests and which durability mode the server runs in.
type crashShape struct {
	name          string
	n             int
	syncEvery     int
	reorderWindow int
	reqs          [][]int
}

func crashShapes() []crashShape {
	const n = 12
	inorder := make([][]int, n)
	for i := range inorder {
		inorder[i] = []int{i}
	}
	// Adjacent pairs swapped: exercises the reorder buffer (and its
	// drop-on-quarantine path) without ever withholding a gap.
	swapped := make([][]int, n)
	for i := 0; i < n; i += 2 {
		swapped[i] = []int{i + 1}
		swapped[i+1] = []int{i}
	}
	batched := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}
	return []crashShape{
		{name: "inorder-singles", n: n, syncEvery: 1, reqs: inorder},
		{name: "swapped-singles", n: n, syncEvery: 1, reorderWindow: 8, reqs: swapped},
		{name: "batched-groupsync", n: n, syncEvery: -1, reqs: batched},
	}
}

func sweepServer(t *testing.T, shape crashShape, ffs *diskfaults.FS, clock *fakeClock, lt *liveTracker) *Server {
	t.Helper()
	s, err := New(Config{
		LedgerDir:     "/led",
		FS:            ffs,
		ProbeInterval: 5 * time.Second,
		Now:           clock.Now,
		SyncEvery:     shape.syncEvery,
		ReorderWindow: shape.reorderWindow,
		TeeRecorder:   lt.recorder,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postBatch(t *testing.T, s *Server, tenant string, seqs []int) *httptest.ResponseRecorder {
	t.Helper()
	b := make([]wireSnapshot, len(seqs))
	for i, seq := range seqs {
		b[i] = wireSnapshot{Snapshot: snapFor(seq)}
	}
	return postRaw(t, s, tenant, map[string]interface{}{"batch": b})
}

// countCleanOps runs the shape's phase-1 workload on an unfaulted FS and
// returns how many faultable filesystem ops it issued — the space the
// sweep places fault points in. Close is deliberately excluded: the
// sweep's drains run after the fault window has closed.
func countCleanOps(t *testing.T, shape crashShape) int64 {
	t.Helper()
	ffs := diskfaults.Wrap(diskfaults.NewMemFS(), diskfaults.Plan{})
	s := sweepServer(t, shape, ffs, newFakeClock(), newLiveTracker())
	for _, req := range shape.reqs {
		if w := postBatch(t, s, "acme", req); w.Code != http.StatusOK {
			t.Fatalf("clean run refused (%d): %s", w.Code, w.Body.String())
		}
	}
	ops := ffs.Ops()
	if err := s.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
	if ops == 0 {
		t.Fatal("clean run issued no filesystem ops — the sweep would be vacuous")
	}
	return ops
}

// TestCrashConsistencySweep is the tentpole's harness: for every workload
// shape, every fault kind, and a stride of fault points across the clean
// run's filesystem-op space, inject the fault mid-stream, let the sender
// retry after it clears (for power cuts: crash the disk to its synced
// image and restart the daemon), and assert the serving contract held:
//
//   - every response was 200, 429, or 503 — never a wrong answer, and
//     every 503 carried a Retry-After;
//   - no decision any 200/429 acknowledged was lost (VerifyLedgers);
//   - the bill derives from the decisions in lockstep (VerifyLedgers);
//   - what replay returns per interval is byte-identical to the last
//     decision the live loop produced for that interval.
func TestCrashConsistencySweep(t *testing.T) {
	kinds := []diskfaults.Kind{
		diskfaults.KindEIO,
		diskfaults.KindENOSPC,
		diskfaults.KindShortWrite,
		diskfaults.KindPowerCut,
	}
	points := int64(13)
	if testing.Short() {
		points = 5
	}
	for _, shape := range crashShapes() {
		t.Run(shape.name, func(t *testing.T) {
			total := countCleanOps(t, shape)
			stride := total / points
			if stride < 1 {
				stride = 1
			}
			for _, kind := range kinds {
				for at := int64(1); at < total; at += stride {
					t.Run(fmt.Sprintf("%s-at%03d", kind, at), func(t *testing.T) {
						runCrashScenario(t, shape, kind, at)
					})
				}
			}
		})
	}
}

func runCrashScenario(t *testing.T, shape crashShape, kind diskfaults.Kind, at int64) {
	mem := diskfaults.NewMemFS()
	ffs := diskfaults.Wrap(mem, diskfaults.Plan{})
	clock := newFakeClock()
	lt := newLiveTracker()
	s := sweepServer(t, shape, ffs, clock, lt)

	count := int64(3)
	if kind == diskfaults.KindPowerCut {
		count = 1
	}
	ffs.SetPlan(diskfaults.Plan{Kind: kind, Start: at, Count: count})

	acked := map[string]int{}
	recordAck := func(w *httptest.ResponseRecorder) {
		if reply := decodeReply(t, w); reply.NextSeq > acked["acme"] {
			acked["acme"] = reply.NextSeq
		}
	}

	// Phase 1: the faulted stream. Refusals are legal; wrong answers and
	// silent acks are not.
	for _, req := range shape.reqs {
		w := postBatch(t, s, "acme", req)
		switch w.Code {
		case http.StatusOK, http.StatusTooManyRequests:
			recordAck(w)
		case http.StatusServiceUnavailable:
			if w.Header().Get("Retry-After") == "" {
				t.Fatalf("503 without Retry-After: %s", w.Body.String())
			}
			clock.advance(6 * time.Second)
		default:
			t.Fatalf("status %d — the contract allows only 200/429/503 (body %s)", w.Code, w.Body.String())
		}
	}

	// Phase 2: the fault clears. A power cut loses every unsynced byte
	// and the whole process; other faults just stop occurring.
	if kind == diskfaults.KindPowerCut {
		mem.Crash()
		ffs.PowerOn()
		ffs.SetPlan(diskfaults.Plan{})
		clock = newFakeClock()
		s = sweepServer(t, shape, ffs, clock, lt)
	} else {
		ffs.SetPlan(diskfaults.Plan{})
		clock.advance(6 * time.Second)
	}

	// The sender re-sends everything in order (idempotency makes that
	// safe); every snapshot must eventually be accepted.
	for i := 0; i < shape.n; i++ {
		accepted := false
		for attempt := 0; attempt < 6 && !accepted; attempt++ {
			w := postBatch(t, s, "acme", []int{i})
			switch w.Code {
			case http.StatusOK:
				recordAck(w)
				accepted = true
			case http.StatusServiceUnavailable:
				clock.advance(6 * time.Second)
			default:
				t.Fatalf("resend %d: status %d (body %s)", i, w.Code, w.Body.String())
			}
		}
		if !accepted {
			t.Fatalf("snapshot %d never accepted after the fault cleared", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("drain after recovery: %v", err)
	}

	// Invariants over the survivors.
	checks, err := VerifyLedgers(ffs, "/led", acked)
	if err != nil {
		t.Fatalf("%v (acked %v)", err, acked)
	}
	if len(checks) != 1 || checks[0].Decisions != shape.n {
		t.Fatalf("verify: %+v, want %d decisions for acme", checks, shape.n)
	}
	log, err := ledger.ReplayFS(ffs, "/led/acme.ledger")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range log.Decisions() {
		want := lt.lastFor("acme", i)
		if want == nil {
			t.Fatalf("replayed decision %d was never produced by the live loop", i)
		}
		if !bytes.Equal(ledger.EncodeDecision(nil, &d), want) {
			t.Fatalf("replayed decision %d diverges from the last live decision for interval %d", i, i)
		}
	}
}
