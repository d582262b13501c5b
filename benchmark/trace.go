package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"daasscale/internal/core"
	"daasscale/internal/fsio"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/serve"
	"daasscale/internal/telemetry"
)

// spanName is a span's layer, kept as a small integer so that the span
// buffer holds no pointers for the collector to scan. The names are this
// repository's module names, frozen by the issue that defined the
// benchmark: spans recorded inside the program later (ROADMAP 5a) must
// reuse them.
type spanName uint8

const (
	spanNone spanName = iota
	spanClient
	spanHandler
	spanPolicy
	spanWrite
	spanSync
	spanReadFile
	spanReadDir
)

func (n spanName) String() string {
	return [...]string{"", "client", "serve.handler", "policy.observe", "fsio.write", "fsio.sync", "fsio.readfile", "fsio.readdir"}[n]
}

// spanHeader carries the request id from the client to the handler seam.
const spanHeader = "X-Bench-Span"

// span is one timed call into a layer. Spans of one request share req; a
// request has exactly one client and one handler span, so parent (a span
// name) plus req identifies the causing span. Times are nanoseconds since
// the tracer was made.
type span struct {
	name, parent spanName
	req          uint64
	start, end   int64
}

// tracer keeps the traced run's spans in memory and knows, per tenant,
// which request is in flight. The seams live in this package only: an
// http.Handler around srv.Handler(), Config.NewPolicy and Config.FS.
//
// policy and fsio spans find their request by tenant (a policy is built per
// tenant, a ledger file is <id>.ledger). A tenant has at most one write and
// one read in flight: closed-loop clients own disjoint tenants, and the
// paced workload has one writer and one reader. Sync is issued by both
// paths; it is charged to the tenant's write when one is in flight.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	nextReq  atomic.Uint64
	curWrite []atomic.Uint64 // per tenant: POST in flight
	curRead  []atomic.Uint64 // per tenant: GET in flight
	anyRead  atomic.Uint64   // the one GET in flight (ReadDir carries no tenant)

	observes atomic.Int64
	resizes  atomic.Int64
}

func newTracer(tenants int) *tracer {
	return &tracer{
		epoch:    time.Now(),
		spans:    make([]span, 0, 1<<20),
		curWrite: make([]atomic.Uint64, tenants),
		curRead:  make([]atomic.Uint64, tenants),
	}
}

func (tr *tracer) add(name, parent spanName, req uint64, start, end time.Time) {
	s := span{name: name, parent: parent, req: req, start: start.Sub(tr.epoch).Nanoseconds(), end: end.Sub(tr.epoch).Nanoseconds()}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// request is the in-flight request of tenant t that an fsio call belongs to.
func (tr *tracer) request(t int, read bool) uint64 {
	if t < 0 || t >= len(tr.curWrite) {
		return tr.anyRead.Load()
	}
	w, r := tr.curWrite[t].Load(), tr.curRead[t].Load()
	if read && r != 0 || w == 0 {
		return r
	}
	return w
}

// handler wraps the daemon's handler with the serve.handler span.
func (tr *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		t := -1
		if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/tenants/"); ok {
			if i := strings.IndexByte(rest, '/'); i > 0 {
				t = tenantIndex(rest[:i])
			}
		}
		read := r.Method == http.MethodGet
		var slot *atomic.Uint64
		if t >= 0 && t < len(tr.curWrite) {
			slot = &tr.curWrite[t]
			if read {
				slot = &tr.curRead[t]
				tr.anyRead.Store(req)
			}
			slot.Store(req)
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		if slot != nil {
			slot.Store(0)
			if read {
				tr.anyRead.Store(0)
			}
		}
		tr.add(spanHandler, spanClient, req, start, end)
	})
}

// tracedPolicy times policy.Policy.Observe — policy, core, estimator and
// budget together, the "policy" layer.
type tracedPolicy struct {
	policy.Policy
	tr     *tracer
	tenant int
}

func (p *tracedPolicy) Observe(s telemetry.Snapshot) policy.Decision {
	start := time.Now()
	d := p.Policy.Observe(s)
	end := time.Now()
	p.tr.add(spanPolicy, spanHandler, p.tr.request(p.tenant, false), start, end)
	p.tr.observes.Add(1)
	if d.Changed {
		p.tr.resizes.Add(1)
	}
	return d
}

// newPolicy is serve.Config.NewPolicy for the traced run: the timer around
// the policy the daemon builds when the hook is unset. It must mirror
// serve.Server.newPolicy under a zero Config — the default catalog, a p95
// goal of serve.DefaultGoalMs — or the traced and the untraced run decide
// differently and trace.overhead_share stops meaning tracing overhead.
func (tr *tracer) newPolicy(id string, initial resource.Container) (policy.Policy, error) {
	sc, err := core.New(core.Config{
		Catalog: resource.DefaultCatalog(),
		Initial: initial,
		Goal:    core.LatencyGoal{Kind: core.GoalP95, Ms: serve.DefaultGoalMs},
	})
	if err != nil {
		return nil, err
	}
	return &tracedPolicy{Policy: policy.NewAuto(sc), tr: tr, tenant: tenantIndex(id)}, nil
}

// tracedFS times the calls the ledger makes on the real filesystem.
type tracedFS struct {
	fsio.FS
	tr *tracer
}

func ledgerTenant(path string) int {
	base := filepath.Base(path)
	if i := strings.Index(base, ".ledger"); i > 0 {
		return tenantIndex(base[:i])
	}
	return -1
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, tr: f.tr, tenant: ledgerTenant(name)}, nil
}

func (f tracedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := f.FS.ReadFile(name)
	f.tr.add(spanReadFile, spanHandler, f.tr.request(ledgerTenant(name), true), start, time.Now())
	return b, err
}

func (f tracedFS) ReadDir(name string) ([]os.DirEntry, error) {
	start := time.Now()
	ents, err := f.FS.ReadDir(name)
	f.tr.add(spanReadDir, spanHandler, f.tr.request(-1, true), start, time.Now())
	return ents, err
}

type tracedFile struct {
	fsio.File
	tr     *tracer
	tenant int
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.tr.add(spanWrite, spanHandler, f.tr.request(f.tenant, false), start, time.Now())
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.tr.add(spanSync, spanHandler, f.tr.request(f.tenant, false), start, time.Now())
	return err
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"name":%q,"req":%d,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n", s.name, s.req, s.parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
