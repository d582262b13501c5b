package workload

import (
	"math"
	"testing"
)

func TestStandardWorkloadsValidate(t *testing.T) {
	for _, name := range []string{"tpcc", "ds2", "cpuio"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if w.Name != name {
			t.Errorf("name = %q, want %q", w.Name, name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) should error")
	}
}

func TestValidateCatchesBadWorkloads(t *testing.T) {
	cases := []*Workload{
		{Name: "empty"},
		{Name: "negweight", Classes: []TxnClass{{Name: "a", Weight: -1}}, DataSizeMB: 10},
		{Name: "zeroweight", Classes: []TxnClass{{Name: "a", Weight: 0}}, DataSizeMB: 10},
		{Name: "bigws", Classes: []TxnClass{{Name: "a", Weight: 1}}, DataSizeMB: 10, WorkingSetMB: 20},
		{Name: "badhot", Classes: []TxnClass{{Name: "a", Weight: 1}}, DataSizeMB: 10, WorkingSetMB: 5, HotspotFraction: 1.5},
	}
	for _, w := range cases {
		if err := w.Validate(); err == nil {
			t.Errorf("workload %q should fail validation", w.Name)
		}
	}
}

func TestMixProfileWeighting(t *testing.T) {
	w := &Workload{
		Name: "mix",
		Classes: []TxnClass{
			{Name: "a", Weight: 3, CPUms: 10, LogicalReads: 100},
			{Name: "b", Weight: 1, CPUms: 2, LogicalReads: 20},
		},
		DataSizeMB: 100,
	}
	p := w.MixProfile()
	if math.Abs(p.CPUms-8) > 1e-9 {
		t.Errorf("CPUms = %v, want 8", p.CPUms)
	}
	if math.Abs(p.LogicalReads-80) > 1e-9 {
		t.Errorf("LogicalReads = %v, want 80", p.LogicalReads)
	}
}

func TestMixProfileZeroWeights(t *testing.T) {
	w := &Workload{Name: "z", Classes: []TxnClass{{Name: "a", Weight: 0, CPUms: 10}}}
	p := w.MixProfile()
	if p.CPUms != 0 {
		t.Errorf("zero-weight profile should be zero, got %+v", p)
	}
}

func TestBottleneckProfiles(t *testing.T) {
	// The experiment narrative requires distinct bottleneck profiles.
	tpcc := TPCC().MixProfile()
	ds2 := DS2().MixProfile()
	cpuio := CPUIO(DefaultCPUIOConfig()).MixProfile()

	// TPC-C: lock time dwarfs CPU time per txn (lock-bound, Fig 13).
	if tpcc.LockHoldMs < 5*tpcc.CPUms {
		t.Errorf("tpcc lock hold %v should dwarf cpu %v", tpcc.LockHoldMs, tpcc.CPUms)
	}
	if tpcc.LockConflictProb < 0.3 {
		t.Errorf("tpcc conflict prob = %v, want heavy contention", tpcc.LockConflictProb)
	}
	// DS2: little contention.
	if ds2.LockConflictProb > 0.1 {
		t.Errorf("ds2 conflict prob = %v, want light contention", ds2.LockConflictProb)
	}
	// CPUIO: substantially more CPU per txn than the OLTP mixes.
	if cpuio.CPUms < 2*tpcc.CPUms {
		t.Errorf("cpuio CPU %v should exceed tpcc %v", cpuio.CPUms, tpcc.CPUms)
	}
}

func TestCPUIOConfigurable(t *testing.T) {
	cpuOnly := CPUIO(CPUIOConfig{CPUWeight: 1, WorkingSetMB: 1024, HotspotFraction: 0.9})
	ioOnly := CPUIO(CPUIOConfig{IOWeight: 1, WorkingSetMB: 1024, HotspotFraction: 0.9})
	pc := cpuOnly.MixProfile()
	pi := ioOnly.MixProfile()
	if pc.CPUms <= pi.CPUms {
		t.Errorf("cpu-only mix should have more CPU: %v vs %v", pc.CPUms, pi.CPUms)
	}
	if pi.LogicalReads <= pc.LogicalReads {
		t.Errorf("io-only mix should have more reads: %v vs %v", pi.LogicalReads, pc.LogicalReads)
	}
	if err := cpuOnly.Validate(); err != nil {
		t.Errorf("cpu-only invalid: %v", err)
	}
	ws := CPUIO(CPUIOConfig{CPUWeight: 1, IOWeight: 1, WorkingSetMB: 3 * 1024, HotspotFraction: 0.97})
	if ws.WorkingSetMB != 3*1024 || ws.HotspotFraction != 0.97 {
		t.Errorf("working set config not applied: %+v", ws)
	}
}

func TestGeneratorJitterAndDeterminism(t *testing.T) {
	g1 := NewGenerator(5, 0.1)
	g2 := NewGenerator(5, 0.1)
	for i := 0; i < 100; i++ {
		a, b := g1.Offered(100), g2.Offered(100)
		if a != b {
			t.Fatalf("generator not deterministic at step %d: %v vs %v", i, a, b)
		}
		if a < 90 || a > 110 {
			t.Fatalf("offered load %v outside jitter band", a)
		}
	}
}

func TestGeneratorMeanTracksTarget(t *testing.T) {
	g := NewGenerator(11, 0.1)
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += g.Offered(50)
	}
	mean := sum / n
	if mean < 48 || mean > 52 {
		t.Errorf("generator mean = %v, want ≈50", mean)
	}
}

func TestGeneratorNeverNegative(t *testing.T) {
	g := NewGenerator(3, 2.0) // extreme jitter
	for i := 0; i < 1000; i++ {
		if v := g.Offered(1); v < 0 {
			t.Fatalf("offered load negative: %v", v)
		}
	}
	if v := g.Offered(0); v != 0 {
		t.Errorf("zero target should offer zero, got %v", v)
	}
}
