package main

import (
	"math"
	"testing"
	"time"
)

// smokeConfig is the benchmark shrunk to 16 tenants and a 300 ms window:
// small enough for tier-1, the same code paths as the real thing.
func smokeConfig(t *testing.T) *config {
	cfg := defaultConfig()
	cfg.tenants, cfg.fixtureIntervals = 16, 8
	cfg.coldStarts, cfg.batch, cfg.probeSyncs = 2, 20, 5
	cfg.warmup, cfg.window = 20*time.Millisecond, 300*time.Millisecond
	cfg.traceWarmup, cfg.traceWindow = 10*time.Millisecond, 150*time.Millisecond
	cfg.slice = 50 * time.Millisecond
	cfg.clusterTenants, cfg.clusterServers = 16, 8
	cfg.trace = true
	cfg.outDir = t.TempDir()
	return cfg
}

// TestSmoke runs every workload, traced, and holds what each emits to
// BENCHMARK.json: every workload passes its output checks and emits no
// metric name twice, its two machine-readable lines carry exactly the
// contract's names with finite values, every end-to-end metric is measured
// (and positive) on every workload, and every per-layer metric is measured
// on at least one — so that a refactor of serve, sim or ledger cannot
// silently break the harness, and the contract cannot drift from it.
func TestSmoke(t *testing.T) {
	c, err := loadContract("../" + contractPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(c.Workloads), len(workloads))
	}
	inContract := map[string]string{} // name -> unit
	for _, m := range append(append([]contractMetric(nil), c.EndToEnd...), c.PerLayer...) {
		if _, dup := inContract[m.Name]; dup {
			t.Errorf("BENCHMARK.json lists %s twice", m.Name)
		}
		inContract[m.Name] = m.Unit
	}
	measured := map[string]bool{}

	cfg := smokeConfig(t)
	for i, wl := range workloads {
		if c.Workloads[i].Name != wl {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, c.Workloads[i].Name, wl)
		}
		res, err := runWorkload(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() || res.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, failures %v", wl, res.attempted, res.failed, res.failures)
		}
		emitted := map[string]bool{}
		for _, m := range append(append([]metric(nil), res.endToEnd...), res.perLayer...) {
			if emitted[m.name] {
				t.Errorf("%s: metric %s emitted twice", wl, m.name)
			}
			emitted[m.name], measured[m.name] = true, true
			if unit, ok := inContract[m.name]; !ok || unit != m.unit {
				t.Errorf("%s: metric %s (%s) is not in BENCHMARK.json, or has another unit there (%q)", wl, m.name, m.unit, unit)
			}
			if math.IsNaN(m.stat.val) || math.IsInf(m.stat.val, 0) {
				t.Errorf("%s: %s is %v", wl, m.name, m.stat.val)
			}
		}
		for _, want := range [][]contractMetric{c.EndToEnd, c.PerLayer} {
			l := res.line(want)
			if len(l.Metrics) != len(want) {
				t.Errorf("%s: the line carries %d metrics, BENCHMARK.json lists %d", wl, len(l.Metrics), len(want))
			}
		}
		for _, m := range c.EndToEnd {
			if v := res.line(c.EndToEnd).Metrics[m.Name].Value; !emitted[m.Name] || v <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v (measured: %v), must be positive", wl, m.Name, v, emitted[m.Name])
			}
		}
		for _, name := range []string{"read_p50_ms", "read_tail_ms"} {
			if emitted[name] != (wl == wlPaced) {
				t.Errorf("%s: %s measured: %v", wl, name, emitted[name])
			}
		}
	}
	for name := range inContract {
		if !measured[name] {
			t.Errorf("BENCHMARK.json lists %s, which no workload measures", name)
		}
	}
}
