package engine

import (
	"math/rand"
	"testing"

	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

// TestContentionIdentityIsBitExact: an engine with explicit identity
// multipliers (and one that had multipliers set then cleared) is
// bit-identical to an engine that never heard of contention. x*1.0 is an
// IEEE-754 identity, so the multiplier threading must not perturb a
// single bit of the zero-contention path.
func TestContentionIdentityIsBitExact(t *testing.T) {
	w := workload.TPCC()
	c := cat.AtStep(4)
	mk := func() *Engine { return mustEngine(t, w, c, 77) }

	plain := mk()
	ident := mk()
	ident.SetContention(Contention{CPU: 1, Memory: 1, LogIO: 1})
	cleared := mk()
	cleared.SetContention(Contention{CPU: 2, Memory: 3, LogIO: 1.5})
	cleared.SetContention(NoContention())

	loadRng := rand.New(rand.NewSource(41))
	for interval := 0; interval < 3; interval++ {
		for i := 0; i < plain.TicksPerInterval(); i++ {
			off := loadRng.Float64() * 400
			plain.Tick(off)
			ident.Tick(off)
			cleared.Tick(off)
		}
		ps, is, cs := plain.EndInterval(), ident.EndInterval(), cleared.EndInterval()
		if ps != is {
			t.Fatalf("interval %d: identity multipliers perturbed the snapshot:\nplain %+v\nident %+v", interval, ps, is)
		}
		if ps != cs {
			t.Fatalf("interval %d: cleared multipliers perturbed the snapshot:\nplain %+v\ncleared %+v", interval, ps, cs)
		}
	}
}

// TestContentionInflatesTargetedWaits: multipliers above one inflate
// exactly the wait classes they target — CPU → WaitCPU, Memory →
// WaitMemory, LogIO → WaitLogIO — leave WaitDiskIO untouched, never
// change served work, and raise p95 latency.
func TestContentionInflatesTargetedWaits(t *testing.T) {
	cases := []struct {
		name string
		c    Contention
		up   telemetry.WaitClass
	}{
		{"cpu", Contention{CPU: 3, Memory: 1, LogIO: 1}, telemetry.WaitCPU},
		{"memory", Contention{CPU: 1, Memory: 3, LogIO: 1}, telemetry.WaitMemory},
		{"logio", Contention{CPU: 1, Memory: 1, LogIO: 3}, telemetry.WaitLogIO},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := workload.TPCC()
			c := cat.AtStep(0) // smallest container: backlogged, waits nonzero
			base := mustEngine(t, w, c, 99)
			hot := mustEngine(t, w, c, 99)
			hot.SetContention(tc.c)

			loadRng := rand.New(rand.NewSource(7))
			var bs, hs telemetry.Snapshot
			for interval := 0; interval < 3; interval++ {
				for i := 0; i < base.TicksPerInterval(); i++ {
					off := 400 + loadRng.Float64()*600
					base.Tick(off)
					hot.Tick(off)
				}
				bs, hs = base.EndInterval(), hot.EndInterval()
			}
			if !(hs.WaitMs[tc.up] > bs.WaitMs[tc.up]) {
				t.Fatalf("%s: targeted wait not inflated: base %v, contended %v", tc.up, bs.WaitMs[tc.up], hs.WaitMs[tc.up])
			}
			if hs.WaitMs[telemetry.WaitDiskIO] != bs.WaitMs[telemetry.WaitDiskIO] {
				t.Fatalf("WaitDiskIO perturbed by contention: %v vs %v", bs.WaitMs[telemetry.WaitDiskIO], hs.WaitMs[telemetry.WaitDiskIO])
			}
			if hs.Transactions != bs.Transactions || hs.Utilization != bs.Utilization {
				t.Fatalf("contention changed served work: txns %v vs %v, util %v vs %v (must inflate waits only)",
					bs.Transactions, hs.Transactions, bs.Utilization, hs.Utilization)
			}
			if !(hs.P95LatencyMs > bs.P95LatencyMs) {
				t.Fatalf("p95 not inflated: base %v, contended %v", bs.P95LatencyMs, hs.P95LatencyMs)
			}
		})
	}
}

// TestContentionNormalized: sub-identity, NaN and zero multipliers are
// lifted to the identity — contention can only slow tenants down, never
// speed them up.
func TestContentionNormalized(t *testing.T) {
	e := mustEngine(t, workload.DS2(), cat.AtStep(4), 5)
	e.SetContention(Contention{CPU: 0.25, Memory: -3})
	if got := e.contention; got != NoContention() {
		t.Fatalf("sub-identity multipliers not lifted: %+v", got)
	}
	e.SetContention(Contention{CPU: 2, Memory: 0, LogIO: 1.5})
	want := Contention{CPU: 2, Memory: 1, LogIO: 1.5}
	if got := e.contention; got != want {
		t.Fatalf("partial lift wrong: got %+v want %+v", got, want)
	}
}

// TestMigrateRestart: landing on a new node evicts the warm buffer pool
// down to the cold-cache floor but never *adds* warmth.
func TestMigrateRestart(t *testing.T) {
	e := mustEngine(t, workload.TPCC(), cat.AtStep(5), 3)
	for i := 0; i < 3*e.TicksPerInterval(); i++ {
		e.Tick(300)
	}
	warm := e.usedMB
	if warm <= e.opts.ColdCacheMB {
		t.Fatalf("engine never warmed past the cold floor (%v <= %v); test needs a warm pool", warm, e.opts.ColdCacheMB)
	}
	e.MigrateRestart()
	if got := e.usedMB; got != e.opts.ColdCacheMB {
		t.Fatalf("migration restart left %v MB warm, want cold floor %v", got, e.opts.ColdCacheMB)
	}
	e.MigrateRestart()
	if got := e.usedMB; got > e.opts.ColdCacheMB {
		t.Fatalf("second restart added warmth: %v", got)
	}
}
