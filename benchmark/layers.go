package main

import (
	"os"
	"path/filepath"
	"time"

	"daasscale/internal/fsio"
	"daasscale/internal/ledger"
	"daasscale/internal/loop"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/stats"
	"daasscale/internal/telemetry"
)

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers reduces the traced drive's spans to the serve path's per-layer
// metrics. Sums are over the requests answered inside the traced window,
// so that client = net_http + serve.handler and serve.handler = policy +
// fsio + serve.self hold by construction.
func (h *serveHarness) layers(res *result, untraced, traced *driveStats, setupS, liveHeap, heapEnd float64) {
	read := map[uint64]bool{} // request id -> is a GET, for requests in the window
	for _, s := range traced.samples {
		read[s.req] = s.read
	}
	type sum struct {
		d time.Duration
		n float64
	}
	var writes, reads [spanReadDir + 1]sum
	for _, sp := range h.tr.spans {
		isRead, ok := read[sp.req]
		if !ok {
			continue
		}
		s := &writes[sp.name]
		if isRead {
			s = &reads[sp.name]
		}
		s.d += time.Duration(sp.end - sp.start)
		s.n++
	}
	w := func(name spanName) sum { return writes[name] }
	r := func(name spanName) sum { return reads[name] }

	posts := w(spanClient).n
	fsioW := w(spanWrite).d + w(spanSync).d + w(spanReadFile).d + w(spanReadDir).d
	if len(traced.late) > 0 { // the open-loop workload only
		res.layer("loadgen.late_p99_ms", "ms", stats.Quantile(traced.late, 0.99))
	}
	res.layer("loadgen.encode_us_per_request", "us", ratio(us(traced.encode), float64(traced.posts)))
	res.layer("net_http.transport_us_per_request", "us", ratio(us(w(spanClient).d-w(spanHandler).d), posts))
	res.layer("serve.handler_us_per_request", "us", ratio(us(w(spanHandler).d), posts))
	res.layer("serve.self_us_per_request", "us", ratio(us(w(spanHandler).d-w(spanPolicy).d-fsioW), posts))
	res.layer("serve.request_bytes_per_decision", "B", ratio(float64(traced.bodyBytes), float64(traced.decisions)))
	res.layer("serve.recover_us_per_tenant", "us", setupS*1e6/float64(h.cfg.tenants))
	res.layer("serve.resident_kb_per_tenant", "KB", liveHeap*1024/float64(h.cfg.tenants))
	res.layer("serve.heap_end_mb", "MB", heapEnd)
	res.layer("policy.observe_us_per_decision", "us", ratio(us(w(spanPolicy).d), w(spanPolicy).n))
	res.layer("policy.resize_share", "ratio", ratio(float64(h.tr.resizes.Load()), float64(h.tr.observes.Load())))
	res.layer("fsio.sync_us_per_request", "us", ratio(us(w(spanSync).d), posts))
	res.layer("fsio.syncs_per_request", "count", ratio(w(spanSync).n, posts))
	res.layer("fsio.write_us_per_request", "us", ratio(us(w(spanWrite).d), posts))
	res.layer("fsio.writes_per_request", "count", ratio(w(spanWrite).n, posts))
	res.layer("fsio.sync_share", "ratio", ratio(float64(w(spanSync).d), float64(w(spanHandler).d)))
	if gets := r(spanHandler).n; gets > 0 { // the workload that reads only
		res.layer("serve.read_handler_us_per_request", "us", us(r(spanHandler).d)/gets)
		res.layer("fsio.readfile_us_per_read", "us", us(r(spanReadFile).d)/gets)
	}

	rate := func(d *driveStats) float64 {
		n := len(d.bounds) - 1
		return float64(d.decisions) / (d.bounds[n].at - d.bounds[0].at).Seconds()
	}
	res.layer("trace.overhead_share", "ratio", 1-ratio(rate(traced), rate(untraced)))
}

// nopRecorder discards decision records.
type nopRecorder struct{}

func (nopRecorder) Record(loop.DecisionRecord) {}

// holdApplier is a substrate that accepts every resize.
type holdApplier struct{ cur resource.Container }

func (a *holdApplier) Apply(c resource.Container) error { a.cur = c; return nil }
func (a *holdApplier) Actual() resource.Container       { return a.cur }

// serveIsolated times the layers that have no seam inside the daemon by
// replaying the generator's own snapshot stream, and the fixture's own
// decisions, through each of them alone.
func serveIsolated(res *result, cfg *config, gen *generator, dir string) error {
	const perTenant = 2 * cycleLen
	tenants := min(gen.tenants(), 64)
	n := float64(tenants * perTenant)

	start := time.Now()
	for t := 0; t < tenants; t++ {
		var prev *telemetry.Snapshot
		for i := 0; i < perTenant; i++ {
			s := gen.snapshot(t, i)
			telemetry.SanitizeSnapshot(&s, prev)
			prev = &s
		}
	}
	res.layer("telemetry.sanitize_us_per_snapshot", "us", us(time.Since(start))/n)

	start = time.Now()
	for t := 0; t < tenants; t++ {
		m := telemetry.NewManager(5) // core.Config's default window
		for i := 0; i < perTenant; i++ {
			m.Observe(gen.snapshot(t, i))
			m.Signals()
		}
	}
	res.layer("telemetry.signals_us_per_interval", "us", us(time.Since(start))/n)

	// The loop's own work per step: a policy that never resizes behind it,
	// and a recorder that drops the record it builds.
	cat := resource.DefaultCatalog()
	start = time.Now()
	for t := 0; t < tenants; t++ {
		app := &holdApplier{cur: cat.Smallest()}
		lp := loop.New(loop.Config[resource.Container]{
			ID: gen.ids[t],
			Decider: &loop.PolicyDecider{
				Policy:       policy.NewStatic("hold", app.cur),
				MemoryTarget: func() float64 { return 0 },
			},
			Applier:  app,
			Recorder: nopRecorder{},
			Describe: loop.DescribeContainer,
		})
		for i := 0; i < perTenant; i++ {
			if err := lp.StepSnapshot(i, gen.snapshot(t, i), true); err != nil {
				return err
			}
		}
	}
	res.layer("loop.stepsnapshot_us_per_decision", "us", us(time.Since(start))/n)

	// Ledger: replay the first tenants' fixture ledgers, then append the
	// same decisions to a fresh, caller-synced writer.
	var replay, appendT time.Duration
	var decisions, bytes float64
	for t := 0; t < tenants; t++ {
		start = time.Now()
		log, err := ledger.ReplayFS(fsio.OS, filepath.Join(dir, gen.ids[t]+".ledger"))
		if err != nil {
			return err
		}
		replay += time.Since(start)
		decs := log.Decisions()
		scratch := filepath.Join(dir, "isolated.scratch")
		w, err := ledger.OpenWriter(scratch, ledger.WithSyncEvery(0))
		if err != nil {
			return err
		}
		start = time.Now()
		for i := range decs {
			if err := w.AppendDecision(decs[i]); err != nil {
				return err
			}
			if err := w.AppendLineItem(ledger.LineItemFor(decs[i])); err != nil {
				return err
			}
		}
		appendT += time.Since(start)
		decisions += float64(len(decs))
		bytes += float64(w.Bytes())
		if err := w.Close(); err != nil {
			return err
		}
		if err := os.Remove(scratch); err != nil {
			return err
		}
	}
	res.layer("ledger.encode_append_us_per_decision", "us", ratio(us(appendT), decisions))
	res.layer("ledger.bytes_per_decision", "B", ratio(bytes, decisions))
	res.layer("ledger.replay_us_per_decision", "us", ratio(us(replay), decisions))
	return nil
}
