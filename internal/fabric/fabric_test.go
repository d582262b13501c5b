package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"daasscale/internal/resource"
)

var cat = resource.LockStepCatalog()

// serverCap is a 32-core box matching the largest container.
var serverCap = cat.Largest().Alloc

// remove evicts a tenant from the cluster: the departures of the churn
// tests. The shipped simulators never remove a tenant.
func (f *Fabric) remove(tenantID string) error {
	idx, ok := f.placement[tenantID]
	if !ok {
		return fmt.Errorf("fabric: tenant %q not placed", tenantID)
	}
	c := f.servers[idx].tenants[tenantID]
	delete(f.servers[idx].tenants, tenantID)
	f.servers[idx].alloc = f.servers[idx].alloc.Sub(c.Alloc)
	delete(f.placement, tenantID)
	return nil
}

// container returns the tenant's current container.
func (f *Fabric) container(tenantID string) (resource.Container, bool) {
	idx, ok := f.placement[tenantID]
	if !ok {
		return resource.Container{}, false
	}
	c, ok := f.servers[idx].tenants[tenantID]
	return c, ok
}

func mustFabric(t *testing.T, n int, policy PlacementPolicy) *Fabric {
	t.Helper()
	f, err := New(n, serverCap, policy)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPolicyString(t *testing.T) {
	if FirstFit.String() != "first-fit" || BestFit.String() != "best-fit" || WorstFit.String() != "worst-fit" {
		t.Error("policy names wrong")
	}
	if PlacementPolicy(9).String() != "placementpolicy(9)" {
		t.Error("unknown policy name")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, serverCap, FirstFit); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := New(2, resource.Vector{}, FirstFit); err == nil {
		t.Error("zero capacity should fail")
	}
}

func TestPlaceAndLookup(t *testing.T) {
	f := mustFabric(t, 2, FirstFit)
	if err := f.Place("t1", cat.AtStep(4)); err != nil {
		t.Fatal(err)
	}
	if err := f.Place("t1", cat.AtStep(0)); err == nil {
		t.Error("duplicate placement should fail")
	}
	s, ok := f.ServerOf("t1")
	if !ok || s.ID != 0 {
		t.Errorf("t1 on server %+v", s)
	}
	c, ok := f.container("t1")
	if !ok || c.Name != "C4" {
		t.Errorf("container = %v", c)
	}
	if _, ok := f.ServerOf("ghost"); ok {
		t.Error("unknown tenant should not resolve")
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestServerAccounting(t *testing.T) {
	f := mustFabric(t, 1, FirstFit)
	c4 := cat.AtStep(4)
	c2 := cat.AtStep(2)
	f.Place("a", c4)
	f.Place("b", c2)
	s := f.Servers()[0]
	if s.TenantCount() != 2 {
		t.Errorf("tenant count = %d", s.TenantCount())
	}
	wantAlloc := c4.Alloc.Add(c2.Alloc)
	if s.Allocated() != wantAlloc {
		t.Errorf("allocated = %v, want %v", s.Allocated(), wantAlloc)
	}
	if got := s.Headroom(); got != serverCap.Sub(wantAlloc) {
		t.Errorf("headroom = %v", got)
	}
	if ts := s.Tenants(); len(ts) != 2 || ts[0] != "a" || ts[1] != "b" {
		t.Errorf("tenants = %v", ts)
	}
}

func TestPlacementRespectsCapacity(t *testing.T) {
	f := mustFabric(t, 1, FirstFit)
	if err := f.Place("big", cat.Largest()); err != nil {
		t.Fatal(err)
	}
	// The server is full: even the smallest container must be refused.
	if err := f.Place("small", cat.Smallest()); err == nil {
		t.Error("placement on a full cluster should fail")
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeInPlace(t *testing.T) {
	f := mustFabric(t, 2, FirstFit)
	f.Place("t1", cat.AtStep(2))
	migrated, err := f.Resize("t1", cat.AtStep(5))
	if err != nil || migrated {
		t.Fatalf("in-place resize: migrated=%v err=%v", migrated, err)
	}
	if c, _ := f.container("t1"); c.Name != "C5" {
		t.Errorf("container = %s", c.Name)
	}
	if f.Migrations() != 0 {
		t.Errorf("migrations = %d", f.Migrations())
	}
	// No-op resize.
	if migrated, err := f.Resize("t1", cat.AtStep(5)); err != nil || migrated {
		t.Error("no-op resize should do nothing")
	}
	// Unknown tenant.
	if _, err := f.Resize("ghost", cat.AtStep(1)); err == nil {
		t.Error("resizing an unplaced tenant should fail")
	}
}

func TestResizeMigratesWhenHostFull(t *testing.T) {
	f := mustFabric(t, 2, FirstFit)
	f.Place("big", cat.AtStep(9))   // 24 cores on server 0
	f.Place("small", cat.AtStep(2)) // 2 cores fit alongside on server 0
	// Growing small to C8 (16 cores) cannot fit on server 0 → migrate.
	migrated, err := f.Resize("small", cat.AtStep(8))
	if err != nil || !migrated {
		t.Fatalf("expected migration: migrated=%v err=%v", migrated, err)
	}
	if s, _ := f.ServerOf("small"); s.ID != 1 {
		t.Errorf("small should be on server 1, got %d", s.ID)
	}
	if f.Migrations() != 1 {
		t.Errorf("migrations = %d", f.Migrations())
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeRefusedKeepsContainer(t *testing.T) {
	f := mustFabric(t, 2, FirstFit)
	f.Place("a", cat.AtStep(9)) // server 0: 24/32 cores
	f.Place("b", cat.AtStep(9)) // server 1: 24/32 cores
	f.Place("c", cat.AtStep(2)) // fits on server 0
	// c wants C9: neither server has 24 spare cores → refuse.
	migrated, err := f.Resize("c", cat.AtStep(9))
	if err == nil || migrated {
		t.Fatalf("resize should be refused: migrated=%v err=%v", migrated, err)
	}
	if !errors.Is(err, ErrRefused) {
		t.Errorf("refusal must wrap ErrRefused, got %v", err)
	}
	// A non-refusal fault — resizing a tenant the fabric never placed —
	// must NOT look like a refusal to errors.Is.
	if _, err := f.Resize("ghost", cat.AtStep(1)); err == nil || errors.Is(err, ErrRefused) {
		t.Errorf("unplaced-tenant resize must fail without ErrRefused, got %v", err)
	}
	if c, _ := f.container("c"); c.Name != "C2" {
		t.Errorf("refused resize must keep the container, got %s", c.Name)
	}
	if f.Refusals() != 1 {
		t.Errorf("refusals = %d", f.Refusals())
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkAlwaysInPlace(t *testing.T) {
	f := mustFabric(t, 1, FirstFit)
	f.Place("t", cat.Largest())
	migrated, err := f.Resize("t", cat.Smallest())
	if err != nil || migrated {
		t.Fatalf("shrink: migrated=%v err=%v", migrated, err)
	}
}

func TestRemove(t *testing.T) {
	f := mustFabric(t, 1, FirstFit)
	f.Place("t", cat.AtStep(4))
	if err := f.remove("t"); err != nil {
		t.Fatal(err)
	}
	if err := f.remove("t"); err == nil {
		t.Error("double remove should fail")
	}
	if f.Servers()[0].TenantCount() != 0 {
		t.Error("tenant not evicted")
	}
}

func TestBestFitPacksDensely(t *testing.T) {
	f := mustFabric(t, 3, BestFit)
	f.Place("a", cat.AtStep(8)) // 16 cores → server 0
	// A 2-core tenant should co-locate on the fullest server that fits.
	f.Place("b", cat.AtStep(2))
	if s, _ := f.ServerOf("b"); s.ID != 0 {
		t.Errorf("best-fit should pack onto server 0, got %d", s.ID)
	}
}

func TestWorstFitBalances(t *testing.T) {
	f := mustFabric(t, 3, WorstFit)
	f.Place("a", cat.AtStep(8)) // server 0
	f.Place("b", cat.AtStep(2))
	if s, _ := f.ServerOf("b"); s.ID == 0 {
		t.Error("worst-fit should spread to an empty server")
	}
}

func TestUtilizationView(t *testing.T) {
	f := mustFabric(t, 2, FirstFit)
	f.Place("a", cat.AtStep(8)) // 16 of 32 cores
	u := f.Utilization()
	if len(u) != 2 || u[0] != 0.5 || u[1] != 0 {
		t.Errorf("utilization = %v", u)
	}
}

func TestFabricInvariantUnderRandomChurn(t *testing.T) {
	// Property: any sequence of place/resize/remove operations keeps every
	// server within capacity and the placement index consistent.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		policy := PlacementPolicy(rng.Intn(3))
		f := mustFabric(t, 1+rng.Intn(4), policy)
		live := map[string]bool{}
		next := 0
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0: // place
				id := fmt.Sprintf("t%d", next)
				next++
				if f.Place(id, cat.AtStep(rng.Intn(cat.LadderLen()))) == nil {
					live[id] = true
				}
			case 1: // resize
				for id := range live {
					f.Resize(id, cat.AtStep(rng.Intn(cat.LadderLen())))
					break
				}
			case 2: // remove
				for id := range live {
					if f.remove(id) == nil {
						delete(live, id)
					}
					break
				}
			}
			if err := f.Validate(); err != nil {
				t.Fatalf("trial %d op %d (%v): %v", trial, op, policy, err)
			}
		}
	}
}

// TestResizeMixedDeltaInPlace is the regression test for the in-place
// fitness check under per-dimension variants: a resize that grows one
// dimension while shrinking another must only need headroom for the
// *positive* components of the delta. Checking the whole new allocation —
// or the raw delta with its negative components — refuses or miscounts
// legal in-place resizes.
func TestResizeMixedDeltaInPlace(t *testing.T) {
	f, err := New(1, flatCap, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	// filler pins the node at 40 units everywhere; t starts CPU-heavy.
	filler := resource.Container{Name: "filler", Alloc: resource.Vector{40, 40, 40, 40}, Cost: 1}
	cur := resource.Container{Name: "cpuheavy", Alloc: resource.Vector{55, 10, 10, 10}, Cost: 1}
	if err := f.Place("filler", filler); err != nil {
		t.Fatal(err)
	}
	if err := f.Place("t", cur); err != nil {
		t.Fatal(err)
	}
	// Pivot to memory-heavy: CPU shrinks 55→10, memory grows 10→55. The
	// full new allocation does NOT fit alongside the current one
	// (memory 40+10+55 > 100), but the positive delta (+45 memory) fits
	// once the CPU shrink is netted out — this must stay in place.
	next := resource.Container{Name: "memheavy", Alloc: resource.Vector{10, 55, 10, 10}, Cost: 1}
	migrated, err := f.Resize("t", next)
	if err != nil || migrated {
		t.Fatalf("mixed-delta resize: migrated=%v err=%v", migrated, err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := f.Servers()[0].Allocated(); got != (resource.Vector{50, 95, 50, 50}) {
		t.Errorf("allocation after pivot = %v", got)
	}
	// The reverse pivot past the remaining headroom: growing CPU by 60
	// against 50 free cannot stay in place, and with one server it must be
	// refused — even though the memory shrink alone would fit.
	big := resource.Container{Name: "cpubig", Alloc: resource.Vector{70, 10, 10, 10}, Cost: 1}
	if _, err := f.Resize("t", big); !errors.Is(err, ErrRefused) {
		t.Errorf("over-headroom pivot error = %v, want ErrRefused", err)
	}
	if c, _ := f.container("t"); c.Name != "memheavy" {
		t.Errorf("refused pivot changed the container to %s", c.Name)
	}
}

// TestBestFitRanksByDominantDimension: the scorer packs against the
// dimension a container actually exhausts, where a CPU-only ranking would
// pick the wrong server for a memory-heavy container.
func TestBestFitRanksByDominantDimension(t *testing.T) {
	seed := func(policy PlacementPolicy) *Fabric {
		f, err := New(2, flatCap, policy)
		if err != nil {
			t.Fatal(err)
		}
		// Server 0: memory-tight (80 memory, little CPU).
		// Server 1: CPU-loaded (40 CPU, little memory).
		// Migrate pins the fixture regardless of the policy under test.
		f.Place("m", resource.Container{Name: "m", Alloc: resource.Vector{10, 80, 0, 0}, Cost: 1})
		f.Place("c", resource.Container{Name: "c", Alloc: resource.Vector{40, 10, 0, 0}, Cost: 1})
		if err := f.Migrate("m", 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Migrate("c", 1); err != nil {
			t.Fatal(err)
		}
		return f
	}
	probe := resource.Container{Name: "p", Alloc: resource.Vector{10, 10, 0, 0}, Cost: 1}

	// Dominant-dimension best fit: server 0's memory headroom after
	// placement (10%) is the tightest fraction anywhere → densest pack.
	f := seed(BestFit)
	f.Place("p", probe)
	if s, _ := f.ServerOf("p"); s.ID != 0 {
		t.Errorf("BestFit placed on server %d, want the memory-tight 0", s.ID)
	}
	// The worst-fit dual spreads instead: it avoids the memory-tight
	// server.
	f = seed(WorstFit)
	f.Place("p", probe)
	if s, _ := f.ServerOf("p"); s.ID != 1 {
		t.Errorf("WorstFit placed on server %d, want 1", s.ID)
	}
}

// TestPickTieBreaksLowerID: equal scores resolve to the lower server index
// under every ranking policy.
func TestPickTieBreaksLowerID(t *testing.T) {
	for _, policy := range []PlacementPolicy{FirstFit, BestFit, WorstFit} {
		f := mustFabric(t, 3, policy)
		f.Place("t", cat.AtStep(3))
		if s, _ := f.ServerOf("t"); s.ID != 0 {
			t.Errorf("%v: empty-cluster placement on server %d, want 0", policy, s.ID)
		}
	}
}

// TestUtilizationByResource: the per-dimension view reports every
// dimension's allocated fraction, and the historical Utilization() is its
// CPU column.
func TestUtilizationByResource(t *testing.T) {
	f, err := New(2, flatCap, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	f.Place("t", resource.Container{Name: "t", Alloc: resource.Vector{25, 50, 10, 75}, Cost: 1})
	u := f.UtilizationByResource()
	if len(u) != 2 {
		t.Fatalf("%d servers reported", len(u))
	}
	if u[0] != (resource.Vector{0.25, 0.5, 0.1, 0.75}) {
		t.Errorf("server 0 utilization = %v", u[0])
	}
	if u[1] != (resource.Vector{}) {
		t.Errorf("server 1 utilization = %v", u[1])
	}
	cpu := f.Utilization()
	if cpu[0] != 0.25 || cpu[1] != 0 {
		t.Errorf("CPU column = %v", cpu)
	}
}
