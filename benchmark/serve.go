package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"daasscale/internal/fsio"
	"daasscale/internal/serve"
	"daasscale/internal/stats"
)

// The three serve workloads drive one in-process daemon behind
// httptest.NewServer on the real filesystem, fsync before every ack
// (SyncEvery: -1), over the shared 1000-tenant fixture.
const (
	wlStrict  = "serve_strict"
	wlBatched = "serve_batched"
	wlPaced   = "serve_paced"
)

// Paced workload schedule: the offered rates are part of the workload's
// definition (decisions_per_s must stay at 100/s).
const (
	pacedWriteEvery = 10 * time.Millisecond
	pacedReadEvery  = 20 * time.Millisecond
	pacedRate       = 100.0
)

// serveHarness is one serve workload's daemon, clients and bookkeeping.
type serveHarness struct {
	cfg  *config
	kind string
	gen  *generator
	dir  string
	tr   *tracer // nil on the untraced run

	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client

	postURL, decisionsURL, billURL []string
	// next is, per tenant, the next sequence number to send — the NextSeq
	// of the last ack, which is also the client-side ack map VerifyLedgers
	// checks. A tenant is only ever touched by the client that owns it.
	next []int
}

// noSyncFS defers durability: the fixture is written with every fsync
// skipped and synced once, as a tree, when it is complete.
type noSyncFS struct{ fsio.FS }

type noSyncFile struct{ fsio.File }

func (noSyncFile) Sync() error { return nil }

func (f noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

// buildFixture decides intervals snapshots for every tenant of gen through
// a serve.Server writing into dir. The caller syncs the tree.
func buildFixture(dir string, gen *generator, intervals, workers int) error {
	srv, err := serve.New(serve.Config{LedgerDir: dir, SyncEvery: -1, FS: noSyncFS{fsio.OS}})
	if err != nil {
		return err
	}
	h := srv.Handler()
	err = perClient(workers, func(k int) error {
		var body []byte
		for t := k; t < gen.tenants(); t += workers {
			body = gen.appendBody(body[:0], t, 0, intervals)
			req := httptest.NewRequest("POST", "/v1/tenants/"+gen.ids[t]+"/telemetry", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("fixture: tenant %s: status %d: %s", gen.ids[t], rec.Code, rec.Body.String())
			}
		}
		return nil
	})
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// copyFixture copies every ledger of src into dst.
func copyFixture(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// syncTree fsyncs every file of dir and dir itself, so write-back of a
// freshly written fixture is never charged to a timed step.
func syncTree(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return fsio.SyncDir(dir)
}

func newServeHarness(cfg *config, kind string, gen *generator, dir string) *serveHarness {
	h := &serveHarness{cfg: cfg, kind: kind, gen: gen, dir: dir, next: make([]int, gen.tenants())}
	h.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16}}
	return h
}

// start opens the daemon over the ledger directory. With a tracer the
// three seams are installed; the daemon's own code is the same.
func (h *serveHarness) start() error {
	sc := serve.Config{LedgerDir: h.dir, SyncEvery: -1}
	if h.tr != nil {
		sc.FS = tracedFS{FS: fsio.OS, tr: h.tr}
		sc.NewPolicy = h.tr.newPolicy
	}
	srv, err := serve.New(sc)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	if h.tr != nil {
		handler = h.tr.handler(handler)
	}
	h.srv = srv
	h.hs = httptest.NewServer(handler)
	n := h.gen.tenants()
	h.postURL, h.decisionsURL, h.billURL = make([]string, n), make([]string, n), make([]string, n)
	for t, id := range h.gen.ids {
		base := h.hs.URL + "/v1/tenants/" + id
		h.postURL[t] = base + "/telemetry"
		h.decisionsURL[t] = base + "/decisions?limit=20"
		h.billURL[t] = base + "/bill"
	}
	return nil
}

// stop closes the daemon, if one is running.
func (h *serveHarness) stop() error {
	if h.srv == nil {
		return nil
	}
	h.client.CloseIdleConnections()
	h.hs.Close()
	err := h.srv.Close()
	h.srv, h.hs = nil, nil
	return err
}

// conn is one client connection's reusable buffers.
type conn struct {
	h    *serveHarness
	body []byte
	resp bytes.Buffer
}

// call is one finished request as the client saw it.
type call struct {
	ok         bool
	start, end time.Time
	req        uint64 // span id (0 on the untraced run)
	bytes      int
	encode     time.Duration
}

type ack struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	NextSeq    int `json:"next_seq"`
}

// do issues one request and reads the whole reply; the client span covers
// exactly that. A non-nil into receives the decoded 200 reply.
func (c *conn) do(method, url string, body []byte, into *ack) call {
	h := c.h
	var out call
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, url, rd)
	if err != nil {
		return out
	}
	if body != nil {
		r.Header.Set("Content-Type", "application/json")
	}
	if h.tr != nil {
		out.req = h.tr.nextReq.Add(1)
		r.Header.Set(spanHeader, strconv.FormatUint(out.req, 10))
	}
	out.bytes = len(body)
	out.start = time.Now()
	resp, err := h.client.Do(r)
	if err != nil {
		out.end = time.Now()
		return out
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	out.end = time.Now()
	if h.tr != nil {
		h.tr.add(spanClient, spanNone, out.req, out.start, out.end)
	}
	out.ok = err == nil && resp.StatusCode == http.StatusOK
	if out.ok && into != nil {
		out.ok = json.Unmarshal(c.resp.Bytes(), into) == nil
	}
	return out
}

// post sends n snapshots of tenant t from its watermark and advances the
// watermark on the ack. ok means a 200 that newly accepted all n.
func (c *conn) post(t, n int) call {
	h := c.h
	e0 := time.Now()
	c.body = h.gen.appendBody(c.body[:0], t, h.next[t], n)
	encode := time.Since(e0)
	var a ack
	out := c.do("POST", h.postURL[t], c.body, &a)
	out.encode = encode
	if out.ok {
		h.next[t] = a.NextSeq
		out.ok = a.Accepted == n
	}
	return out
}

// perClient runs fn(k) on every one of n client goroutines and returns the
// first error.
func perClient(n int, fn func(k int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = fn(k)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// touchAll sends every tenant one duplicate POST (interval 0, long since
// decided). The daemon opens the tenant — ledger replay and loop rebuild —
// to answer it, and the reply carries the tenant's watermark.
func (h *serveHarness) touchAll() error {
	clients := h.cfg.clients
	return perClient(clients, func(k int) error {
		c := &conn{h: h}
		for t := k; t < h.gen.tenants(); t += clients {
			c.body = h.gen.appendBody(c.body[:0], t, 0, 1)
			var a ack
			if r := c.do("POST", h.postURL[t], c.body, &a); !r.ok || a.Duplicates != 1 {
				return fmt.Errorf("touching %s: ok=%v ack=%+v body=%s", h.gen.ids[t], r.ok, a, c.resp.String())
			}
			h.next[t] = a.NextSeq
		}
		return nil
	})
}

// coldStarts measures set-up: serve.New over the fixture until every
// tenant has answered. It leaves the last daemon running.
func (h *serveHarness) coldStarts() ([]float64, error) {
	var secs []float64
	for i := 0; i < h.cfg.coldStarts; i++ {
		if err := h.stop(); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		if err := h.start(); err != nil {
			return nil, err
		}
		if err := h.touchAll(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}

// sample is one answered request, timed from when it was due (open loop)
// or sent (closed loop).
type sample struct {
	done time.Duration // completion, since the drive began
	lat  time.Duration
	read bool
	req  uint64
}

// boundary is the process state at a slice edge of the window.
type boundary struct {
	at        time.Duration
	cpu       time.Duration
	spun      time.Duration // of cpu, burnt by the open-loop senders waiting
	decisions int64
}

// driveStats is what one client, and merged one drive, observed inside the
// measured window.
type driveStats struct {
	samples   []sample
	late      []float64 // ms between free-and-due and actually sent
	attempted int64
	failed    int64
	posts     int64
	decisions int64
	encode    time.Duration
	bodyBytes int64
	bounds    []boundary
}

func (w *driveStats) merge(o *driveStats) {
	w.samples = append(w.samples, o.samples...)
	w.late = append(w.late, o.late...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.posts += o.posts
	w.encode += o.encode
	w.bodyBytes += o.bodyBytes
}

// drive is one warm-up plus measured window of a serve workload.
type drive struct {
	h                 *serveHarness
	t0, windowAt, end time.Time
	decided           atomic.Int64 // decisions acked since t0
	spun              atomic.Int64 // ns the open-loop senders spent yielding
}

// record files a finished request under the client's stats if it completed
// inside the window; from is the instant its latency counts from.
func (d *drive) record(w *driveStats, c call, from time.Time, read bool) {
	if c.end.Before(d.windowAt) || c.end.After(d.end) {
		return
	}
	w.attempted++
	if !read {
		w.posts++
		w.encode += c.encode
		w.bodyBytes += int64(c.bytes)
	}
	if !c.ok {
		w.failed++
		return
	}
	w.samples = append(w.samples, sample{done: c.end.Sub(d.t0), lat: c.end.Sub(from), read: read, req: c.req})
}

// run drives the workload and samples the process at every slice edge.
// Clients run through warm-up and window alike.
func (h *serveHarness) run(warm, window time.Duration) *driveStats {
	d := &drive{h: h, t0: time.Now()}
	d.windowAt = d.t0.Add(warm)
	d.end = d.windowAt.Add(window)

	clients := h.cfg.clients
	if h.kind == wlPaced {
		clients = 2
	}
	per := make([]*driveStats, clients)
	var wg sync.WaitGroup
	for k := range per {
		per[k] = &driveStats{}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := &conn{h: h}
			switch {
			case h.kind == wlPaced && k == 0:
				d.pacedWriter(c, per[k])
			case h.kind == wlPaced:
				d.pacedReader(c, per[k])
			case h.kind == wlBatched:
				d.closedLoop(c, per[k], k, h.cfg.batch)
			default:
				d.closedLoop(c, per[k], k, 1)
			}
		}(k)
	}

	slices := max(1, int(window/h.cfg.slice))
	out := &driveStats{}
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(d.windowAt.Add(time.Duration(i) * window / time.Duration(slices))))
		out.bounds = append(out.bounds, boundary{at: time.Since(d.t0), cpu: processCPU(), spun: time.Duration(d.spun.Load()), decisions: d.decided.Load()})
	}
	wg.Wait()
	for _, w := range per {
		out.merge(w)
	}
	out.decisions = out.bounds[slices].decisions - out.bounds[0].decisions
	return out
}

// closedLoop is client k of a closed-loop workload: it owns the tenants
// congruent to k, visits them round-robin, and sends the next request when
// the last was answered. n is the snapshots per POST.
func (d *drive) closedLoop(c *conn, w *driveStats, k, n int) {
	h := d.h
	for t := k; time.Now().Before(d.end); t += h.cfg.clients {
		if t >= h.gen.tenants() {
			t = k
		}
		r := c.post(t, n)
		if r.ok {
			d.decided.Add(int64(n))
		}
		d.record(w, r, r.start, false)
	}
}

// waitUntil sleeps to within a millisecond of due, then yields until it: a
// sleep alone wakes up to a timer tick (a millisecond here) late. It
// returns the CPU it burnt yielding, which is the generator's and not the
// daemon's: its thread's own clock, read with the goroutine pinned to the
// thread meanwhile, so that time the thread was not running is not counted.
func waitUntil(due time.Time) time.Duration {
	if s := time.Until(due) - time.Millisecond; s > 0 {
		time.Sleep(s)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return threadCPU() - start
}

// openLoop calls send(i) at t0 + offset + i*every until the drive ends, and
// records how late the generator itself ran: the time past the later of the
// due time and the moment its connection became free.
func (d *drive) openLoop(w *driveStats, offset, every time.Duration, send func(i int, due time.Time) call) {
	free := d.t0
	for i := 0; ; i++ {
		due := d.t0.Add(offset + time.Duration(i)*every)
		if !due.Before(d.end) {
			return
		}
		d.spun.Add(int64(waitUntil(due)))
		ready := due
		if free.After(ready) {
			ready = free
		}
		r := send(i, due)
		if !r.end.Before(d.windowAt) && !r.end.After(d.end) {
			w.late = append(w.late, float64(r.start.Sub(ready))/1e6)
		}
		free = r.end
	}
}

// pacedWriter posts one snapshot every 10 ms, tenants round-robin.
func (d *drive) pacedWriter(c *conn, w *driveStats) {
	d.openLoop(w, 0, pacedWriteEvery, func(i int, due time.Time) call {
		r := c.post(i%d.h.gen.tenants(), 1)
		if r.ok {
			d.decided.Add(1)
		}
		d.record(w, r, due, false)
		return r
	})
}

// pacedReader issues one GET every 20 ms, alternating the decision tail
// and the bill, on tenant 7i mod N. Reads are due midway between two
// writes: due at the same instants, every read would start in step with a
// write and the two would measure each other.
func (d *drive) pacedReader(c *conn, w *driveStats) {
	h := d.h
	d.openLoop(w, pacedWriteEvery/2, pacedReadEvery, func(i int, due time.Time) call {
		t := 7 * i % h.gen.tenants()
		url := h.decisionsURL[t]
		if i%2 == 1 {
			url = h.billURL[t]
		}
		r := c.do("GET", url, nil, nil)
		d.record(w, r, due, true)
		return r
	})
}

// acked is the client-side ack map in the form serve.VerifyLedgers takes.
func (h *serveHarness) acked() map[string]int {
	m := make(map[string]int, len(h.next))
	for t, n := range h.next {
		m[h.gen.ids[t]] = n
	}
	return m
}

// verify is the output check run once the daemon has closed for good:
// nothing acked is lost, decisions are contiguous from 0 and the bill is in
// lockstep with them.
func (h *serveHarness) verify(res *result) {
	start := time.Now()
	if _, err := serve.VerifyLedgers(fsio.OS, h.dir, h.acked()); err != nil {
		res.fail("VerifyLedgers: %v", err)
	}
	phase(h.kind+": VerifyLedgers", start)
}

// checkRate is the paced workload's own check: the achieved rate is the
// offered one.
func (h *serveHarness) checkRate(res *result, w *driveStats, window time.Duration) {
	if h.kind != wlPaced {
		return
	}
	want := pacedRate * window.Seconds()
	// Two requests of slack for where the window's edges fall.
	if diff := float64(w.decisions) - want; diff > 0.01*want+2 || diff < -0.01*want-2 {
		res.fail("paced rate: %d decisions in %v, offered %.0f", w.decisions, window, want)
	}
}

// perSlice splits the window's latencies (ms) by slice.
func perSlice(w *driveStats, read bool) [][]float64 {
	out := make([][]float64, len(w.bounds)-1)
	for _, s := range w.samples {
		if s.read != read {
			continue
		}
		for i := range out {
			if s.done <= w.bounds[i+1].at || i == len(out)-1 {
				out[i] = append(out[i], float64(s.lat)/1e6)
				break
			}
		}
	}
	return out
}

// endToEnd reduces one untraced drive to the workload's end-to-end
// metrics. Every timing is computed per slice and reduced by reduceSlices.
func (h *serveHarness) endToEnd(res *result, w *driveStats, setup []float64, liveHeap float64) {
	res.add(metric{name: "setup_s", unit: "s", stat: setupStat(setup)})

	var rate, cpu []float64
	for i := 1; i < len(w.bounds); i++ {
		a, b := w.bounds[i-1], w.bounds[i]
		n := float64(b.decisions - a.decisions)
		rate = append(rate, n/(b.at-a.at).Seconds())
		if n > 0 {
			cpu = append(cpu, us((b.cpu-a.cpu)-(b.spun-a.spun))/n)
		}
	}
	res.add(metric{name: "decisions_per_s", unit: "1/s", stat: reduceSlices(rate, true)})

	quant := func(name string, read bool, q float64) {
		var per []float64
		for _, lats := range perSlice(w, read) {
			if len(lats) > 0 {
				per = append(per, stats.Quantile(lats, q))
			}
		}
		res.add(metric{name: name, unit: "ms", stat: reduceSlices(per, false)})
	}
	quant("latency_p50_ms", false, 0.50)
	quant("latency_tail_ms", false, 0.95)
	if h.kind == wlPaced {
		quant("read_p50_ms", true, 0.50)
		quant("read_tail_ms", true, 0.95)
	}
	res.add(metric{name: "cpu_us_per_decision", unit: "us", stat: reduceSlices(cpu, false)})
	res.add(metric{name: "live_heap_mb", unit: "MB", stat: single(liveHeap)})
	res.attempted += w.attempted
	res.failed += w.failed
}

// runServe is one serve workload, start to finish.
func runServe(cfg *config, kind string) (*result, error) {
	res := newResult(cfg, kind)
	if lim := noFileLimit(); lim < uint64(2*cfg.tenants) {
		return nil, fmt.Errorf("RLIMIT_NOFILE is %d; %d tenants keep one ledger open each and need at least %d", lim, cfg.tenants, 2*cfg.tenants)
	}
	gen, err := newGenerator(cfg.seed, cfg.tenants)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, kind+"-ledgers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := time.Now()
	if cfg.fixtureDir != "" {
		err = copyFixture(cfg.fixtureDir, dir)
	} else {
		err = buildFixture(dir, gen, cfg.fixtureIntervals, runtime.GOMAXPROCS(0))
	}
	if err != nil {
		return nil, err
	}
	phase(kind+": fixture", t)
	t = time.Now()
	if err := syncTree(dir); err != nil {
		return nil, err
	}
	phase(kind+": fixture fsync", t)
	if res.env.FsyncProbeUs, err = fsyncProbe(dir, cfg.probeSyncs); err != nil {
		return nil, err
	}

	h := newServeHarness(cfg, kind, gen, dir)
	defer h.stop() // for the error paths; every other path has stopped it and checked
	t = time.Now()
	setup, err := h.coldStarts()
	if err != nil {
		return nil, err
	}
	phase(kind+": cold starts", t)
	liveHeap := heapMB()
	w := h.run(cfg.warmup, cfg.window)
	heapEnd := heapMB()
	if err := h.stop(); err != nil {
		return nil, err
	}
	h.endToEnd(res, w, setup, liveHeap)
	h.checkRate(res, w, cfg.window)
	if !cfg.trace {
		h.verify(res)
		return res, nil
	}

	// The traced run: the same daemon over the same ledgers with the seams
	// installed, a shorter window, and nothing of it in the end-to-end
	// numbers above.
	h.tr = newTracer(cfg.tenants)
	if err := h.start(); err != nil {
		return nil, err
	}
	if err := h.touchAll(); err != nil {
		return nil, err
	}
	tw := h.run(cfg.traceWarmup, cfg.traceWindow)
	if err := h.stop(); err != nil {
		return nil, err
	}
	h.checkRate(res, tw, cfg.traceWindow)
	h.verify(res)
	res.attempted += tw.attempted
	res.failed += tw.failed
	t = time.Now()
	h.layers(res, w, tw, setupStat(setup).val, liveHeap, heapEnd)
	if err := serveIsolated(res, cfg, gen, dir); err != nil {
		return nil, err
	}
	err = writeSpans(filepath.Join(cfg.outDir, "trace-"+kind+".jsonl"), h.tr.spans)
	phase(kind+": layers and span dump", t)
	return res, err
}
