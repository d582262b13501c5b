package resource

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{CPU: "cpu", Memory: "memory", DiskIO: "diskio", LogIO: "logio"}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, s)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestVectorArithmetic(t *testing.T) {
	v := Vector{1, 2, 3, 4}
	w := Vector{10, 20, 30, 40}
	if got := v.Add(w); got != (Vector{11, 22, 33, 44}) {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); got != (Vector{9, 18, 27, 36}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Max(Vector{0, 5, 2, 9}); got != (Vector{1, 5, 3, 9}) {
		t.Errorf("Max = %v", got)
	}
	if got := v.With(Memory, 77); got != (Vector{1, 77, 3, 4}) {
		t.Errorf("With = %v", got)
	}
}

func TestVectorDominates(t *testing.T) {
	big := Vector{10, 10, 10, 10}
	small := Vector{1, 1, 1, 1}
	if !big.Dominates(small) {
		t.Error("big should dominate small")
	}
	if small.Dominates(big) {
		t.Error("small should not dominate big")
	}
	if !big.Dominates(big) {
		t.Error("a vector dominates itself")
	}
	mixed := Vector{20, 1, 1, 1}
	if big.Dominates(mixed) || mixed.Dominates(big) {
		t.Error("incomparable vectors should not dominate each other")
	}
}

func TestVectorDominatesProperty(t *testing.T) {
	// Property: for any vectors a,b the component-wise max dominates both.
	f := func(a, b [4]float64) bool {
		va, vb := Vector(a), Vector(b)
		for i := range va {
			if math.IsNaN(va[i]) || math.IsNaN(vb[i]) {
				return true
			}
		}
		m := va.Max(vb)
		return m.Dominates(va) && m.Dominates(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultCatalogShape(t *testing.T) {
	cat := DefaultCatalog()
	ladder := cat.Ladder()
	if len(ladder) != 11 {
		t.Fatalf("ladder has %d sizes, want 11", len(ladder))
	}
	if got := cat.Smallest().Cost; got != 7 {
		t.Errorf("smallest cost = %v, want 7", got)
	}
	if got := cat.Largest().Cost; got != 270 {
		t.Errorf("largest cost = %v, want 270", got)
	}
	if got := cat.Smallest().Alloc[CPU]; got != 500 {
		t.Errorf("smallest CPU = %v, want 0.5 cores", got)
	}
	if got := cat.Largest().Alloc[CPU]; got != 32000 {
		t.Errorf("largest CPU = %v, want 32 cores", got)
	}
	// Ladder must be strictly increasing in every dimension and in cost.
	for i := 1; i < len(ladder); i++ {
		if !ladder[i].Alloc.Dominates(ladder[i-1].Alloc) {
			t.Errorf("ladder[%d] %v does not dominate ladder[%d]", i, ladder[i], i-1)
		}
		if ladder[i].Cost <= ladder[i-1].Cost {
			t.Errorf("ladder[%d] cost %v not above ladder[%d] cost %v", i, ladder[i].Cost, i-1, ladder[i-1].Cost)
		}
		if ladder[i].Step != ladder[i-1].Step+1 {
			t.Errorf("ladder[%d] step %d not consecutive", i, ladder[i].Step)
		}
	}
}

func TestDefaultCatalogVariants(t *testing.T) {
	cat := DefaultCatalog()
	v, ok := cat.ByName("C4-hicpu")
	if !ok {
		t.Fatal("C4-hicpu missing")
	}
	base, _ := cat.ByName("C4")
	if v.Alloc[CPU] != 2*base.Alloc[CPU] {
		t.Errorf("hicpu CPU = %v, want 2x base %v", v.Alloc[CPU], base.Alloc[CPU])
	}
	if v.Alloc[Memory] != base.Alloc[Memory] {
		t.Errorf("hicpu memory changed: %v vs %v", v.Alloc[Memory], base.Alloc[Memory])
	}
	next, _ := cat.ByName("C5")
	if v.Cost <= base.Cost || v.Cost >= next.Cost {
		t.Errorf("variant cost %v not between %v and %v", v.Cost, base.Cost, next.Cost)
	}
	if v.Step != base.Step {
		t.Errorf("variant step %d != base step %d", v.Step, base.Step)
	}
}

func TestLockStepCatalog(t *testing.T) {
	cat := LockStepCatalog()
	if got := len(cat.containers); got != 11 {
		t.Fatalf("lock-step catalog has %d containers, want 11", got)
	}
	if _, ok := cat.ByName("C4-hicpu"); ok {
		t.Error("lock-step catalog should not contain variants")
	}
}

func TestCatalogAtStepClamping(t *testing.T) {
	cat := LockStepCatalog()
	if got := cat.AtStep(-5); got.Name != "C0" {
		t.Errorf("AtStep(-5) = %s, want C0", got.Name)
	}
	if got := cat.AtStep(100); got.Name != "C10" {
		t.Errorf("AtStep(100) = %s, want C10", got.Name)
	}
	if got := cat.AtStep(4); got.Name != "C4" {
		t.Errorf("AtStep(4) = %s, want C4", got.Name)
	}
}

func TestSmallestFitting(t *testing.T) {
	cat := LockStepCatalog()
	// A demand just above C2 in CPU should pick C3.
	c2, _ := cat.ByName("C2")
	demand := c2.Alloc.With(CPU, c2.Alloc[CPU]+1)
	got, ok := cat.SmallestFitting(demand)
	if !ok || got.Name != "C3" {
		t.Errorf("SmallestFitting = %s ok=%v, want C3 true", got.Name, ok)
	}
	// Zero demand fits the smallest container.
	got, ok = cat.SmallestFitting(Vector{})
	if !ok || got.Name != "C0" {
		t.Errorf("SmallestFitting(zero) = %s ok=%v, want C0 true", got.Name, ok)
	}
	// Demand beyond the largest container cannot be met.
	got, ok = cat.SmallestFitting(cat.Largest().Alloc.Add(cat.Largest().Alloc))
	if ok || got.Name != "C10" {
		t.Errorf("SmallestFitting(huge) = %s ok=%v, want C10 false", got.Name, ok)
	}
}

func TestSmallestFittingPrefersVariant(t *testing.T) {
	cat := DefaultCatalog()
	// Demand with CPU above C4 but everything else within C4: the C4-hicpu
	// variant should win over C5 because it is cheaper.
	c4, _ := cat.ByName("C4")
	demand := c4.Alloc.With(CPU, c4.Alloc[CPU]*1.5)
	got, ok := cat.SmallestFitting(demand)
	if !ok || got.Name != "C4-hicpu" {
		t.Errorf("SmallestFitting = %s ok=%v, want C4-hicpu true", got.Name, ok)
	}
}

func TestCheapestWithin(t *testing.T) {
	cat := LockStepCatalog()
	c3, _ := cat.ByName("C3")
	// Enough budget: picks the smallest fitting container.
	got, ok := cat.CheapestWithin(c3.Alloc, 1000)
	if !ok || got.Name != "C3" {
		t.Errorf("CheapestWithin(large budget) = %s ok=%v, want C3 true", got.Name, ok)
	}
	// Budget below C3's cost: falls back to most expensive affordable.
	got, ok = cat.CheapestWithin(c3.Alloc, 35)
	if ok || got.Name != "C2" {
		t.Errorf("CheapestWithin(budget 35) = %s ok=%v, want C2 false", got.Name, ok)
	}
	// Budget below even the smallest container: smallest is returned.
	got, ok = cat.CheapestWithin(c3.Alloc, 1)
	if ok || got.Name != "C0" {
		t.Errorf("CheapestWithin(budget 1) = %s ok=%v, want C0 false", got.Name, ok)
	}
}

func TestCheapestWithinProperty(t *testing.T) {
	cat := DefaultCatalog()
	// Property: the returned container never exceeds the budget unless the
	// budget is below the cheapest container's cost.
	f := func(cpu, mem, budget float64) bool {
		cpu = math.Abs(math.Mod(cpu, 40000))
		mem = math.Abs(math.Mod(mem, 80000))
		budget = math.Abs(math.Mod(budget, 400))
		demand := Vector{cpu, mem, 0, 0}
		got, _ := cat.CheapestWithin(demand, budget)
		if budget >= cat.Smallest().Cost && got.Cost > budget {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNewCatalogValidation(t *testing.T) {
	if _, err := NewCatalog(nil); err == nil {
		t.Error("empty catalog should fail")
	}
	if _, err := NewCatalog([]Container{{Name: "A", Cost: 0, Step: 0}}); err == nil {
		t.Error("zero cost should fail")
	}
	if _, err := NewCatalog([]Container{
		{Name: "A", Cost: 1, Step: 0},
		{Name: "A", Cost: 2, Step: 1},
	}); err == nil {
		t.Error("duplicate names should fail")
	}
	if _, err := NewCatalog([]Container{
		{Name: "A", Cost: 5, Step: 0},
		{Name: "B", Cost: 3, Step: 1},
	}); err == nil {
		t.Error("non-increasing ladder cost should fail")
	}
	if _, err := NewCatalog([]Container{{Name: "A-x", Cost: 5, Step: 0}}); err == nil {
		t.Error("catalog with only variants should fail")
	}
}

func TestByNameMissing(t *testing.T) {
	cat := LockStepCatalog()
	if _, ok := cat.ByName("nope"); ok {
		t.Error("ByName should miss for unknown SKU")
	}
}

func TestStringRenderings(t *testing.T) {
	v := Vector{1500, 4096, 800, 2048}
	s := v.String()
	for _, want := range []string{"cpu=1500.0mcs", "mem=4096MB", "io=800iops", "log=2048KBps"} {
		if !strings.Contains(s, want) {
			t.Errorf("Vector.String() = %q missing %q", s, want)
		}
	}
	cat := LockStepCatalog()
	cs := cat.AtStep(4).String()
	if !strings.Contains(cs, "C4") || !strings.Contains(cs, "cost=60") {
		t.Errorf("Container.String() = %q", cs)
	}
}

func TestVectorSubAndStepOf(t *testing.T) {
	cat := LockStepCatalog()
	c := cat.AtStep(3)
	if got := cat.StepOf(c); got != 3 {
		t.Errorf("StepOf = %d", got)
	}
	d := c.Alloc.Sub(cat.AtStep(2).Alloc)
	for _, k := range Kinds {
		if d[k] <= 0 {
			t.Errorf("ladder deltas must be positive: %v", d)
		}
	}
}

func TestLadderLen(t *testing.T) {
	if got := LockStepCatalog().LadderLen(); got != 11 {
		t.Errorf("LadderLen = %d", got)
	}
	if got := DefaultCatalog().LadderLen(); got != 11 {
		t.Errorf("full catalog LadderLen = %d (variants must not join the ladder)", got)
	}
}
