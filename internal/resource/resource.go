// Package resource defines the resource dimensions of a DaaS container, the
// container abstraction itself, and the catalog of container sizes (SKUs)
// offered by the service.
//
// A container guarantees a fixed set of resources (CPU, memory, disk I/O,
// log I/O) and has a monetary cost per billing interval. The catalog mirrors
// the setting of the SIGMOD'16 paper (Section 7.1): eleven lock-step sizes
// whose CPU allocation spans half a core to tens of cores and whose cost per
// billing interval ranges from 7 to 270 units, plus per-dimension variants
// (high-CPU / high-memory / high-I/O) in the style of the paper's Figure 1.
package resource

import (
	"fmt"
	"strings"
)

// Kind identifies one physical resource dimension of a container.
type Kind int

// The physical resource dimensions a container allocates. Logical resources
// (locks, latches) are wait classes only and are defined in package
// telemetry; they are not provisioned by a container.
const (
	CPU Kind = iota
	Memory
	DiskIO
	LogIO
	numKinds
)

// Kinds lists every physical resource dimension in canonical order.
var Kinds = [...]Kind{CPU, Memory, DiskIO, LogIO}

// NumKinds is the number of physical resource dimensions.
const NumKinds = int(numKinds)

// String returns the conventional short name of the resource kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case DiskIO:
		return "diskio"
	case LogIO:
		return "logio"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Vector is an allocation or demand expressed in each resource dimension.
//
// Units:
//   - CPU: core-milliseconds of compute per second (1 core = 1000).
//   - Memory: megabytes.
//   - DiskIO: I/O operations per second.
//   - LogIO: kilobytes of log write per second.
type Vector [NumKinds]float64

// With returns a copy of v with component k replaced by x.
func (v Vector) With(k Kind, x float64) Vector {
	v[k] = x
	return v
}

// Add returns the component-wise sum v + w.
func (v Vector) Add(w Vector) Vector {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Sub returns the component-wise difference v − w.
func (v Vector) Sub(w Vector) Vector {
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// Max returns the component-wise maximum of v and w.
func (v Vector) Max(w Vector) Vector {
	for i := range v {
		if w[i] > v[i] {
			v[i] = w[i]
		}
	}
	return v
}

// Dominates reports whether every component of v is ≥ the corresponding
// component of w. A container whose allocation dominates a demand vector can
// satisfy that demand in every dimension.
func (v Vector) Dominates(w Vector) bool {
	for i := range v {
		if v[i] < w[i] {
			return false
		}
	}
	return true
}

// String renders the vector with unit-annotated components.
func (v Vector) String() string {
	return fmt.Sprintf("cpu=%.1fmcs mem=%.0fMB io=%.0fiops log=%.0fKBps",
		v[CPU], v[Memory], v[DiskIO], v[LogIO])
}

// Container is one entry of the service's SKU catalog: a named, fixed
// allocation of resources with a cost per billing interval.
type Container struct {
	// Name is the SKU name, e.g. "C4" or "C4-hicpu".
	Name string
	// Alloc is the guaranteed resource allocation.
	Alloc Vector
	// Cost is the monetary cost per billing interval, in abstract units.
	Cost float64
	// Step is the position of the container in its scaling ladder:
	// 0 for the smallest lock-step size, increasing with size. Per-dimension
	// variants share the step of the lock-step size they extend.
	Step int
}

// String renders the container name, cost and allocation.
func (c Container) String() string {
	return fmt.Sprintf("%s(cost=%.0f %s)", c.Name, c.Cost, c.Alloc)
}

// Catalog is the set of container sizes a DaaS offers. The zero value is not
// usable; construct one with NewCatalog or DefaultCatalog.
type Catalog struct {
	containers []Container
	byName     map[string]int
	// ladder holds the indices of the lock-step sizes in increasing step
	// order; per-dimension variants are reachable only through selection by
	// demand vector.
	ladder []int
}

// NewCatalog builds a catalog from the given containers. Containers must
// have unique names and positive costs. Containers whose name contains no
// '-' are treated as lock-step ladder sizes and must appear in strictly
// increasing cost and step order.
func NewCatalog(containers []Container) (*Catalog, error) {
	if len(containers) == 0 {
		return nil, fmt.Errorf("resource: catalog requires at least one container")
	}
	c := &Catalog{
		containers: append([]Container(nil), containers...),
		byName:     make(map[string]int, len(containers)),
	}
	var prevLadder *Container
	for i := range c.containers {
		ct := &c.containers[i]
		if ct.Cost <= 0 {
			return nil, fmt.Errorf("resource: container %q has non-positive cost %v", ct.Name, ct.Cost)
		}
		if _, dup := c.byName[ct.Name]; dup {
			return nil, fmt.Errorf("resource: duplicate container name %q", ct.Name)
		}
		c.byName[ct.Name] = i
		if !strings.Contains(ct.Name, "-") {
			if prevLadder != nil && (ct.Cost <= prevLadder.Cost || ct.Step <= prevLadder.Step) {
				return nil, fmt.Errorf("resource: ladder container %q must increase cost and step over %q", ct.Name, prevLadder.Name)
			}
			c.ladder = append(c.ladder, i)
			prevLadder = ct
		}
	}
	if len(c.ladder) == 0 {
		return nil, fmt.Errorf("resource: catalog has no lock-step ladder containers")
	}
	return c, nil
}

// Ladder returns the lock-step sizes in increasing step order.
func (c *Catalog) Ladder() []Container {
	out := make([]Container, len(c.ladder))
	for i, idx := range c.ladder {
		out[i] = c.containers[idx]
	}
	return out
}

// ByName looks a container up by SKU name.
func (c *Catalog) ByName(name string) (Container, bool) {
	i, ok := c.byName[name]
	if !ok {
		return Container{}, false
	}
	return c.containers[i], true
}

// Smallest returns the cheapest lock-step container.
func (c *Catalog) Smallest() Container { return c.containers[c.ladder[0]] }

// Largest returns the most expensive lock-step container.
func (c *Catalog) Largest() Container { return c.containers[c.ladder[len(c.ladder)-1]] }

// LadderLen returns the number of lock-step sizes.
func (c *Catalog) LadderLen() int { return len(c.ladder) }

// AtStep returns the lock-step container at the given step, clamping to the
// ends of the ladder.
func (c *Catalog) AtStep(step int) Container {
	if step < 0 {
		step = 0
	}
	if step >= len(c.ladder) {
		step = len(c.ladder) - 1
	}
	return c.containers[c.ladder[step]]
}

// StepOf returns the ladder step of the given container (its Step field for
// per-dimension variants).
func (c *Catalog) StepOf(ct Container) int { return ct.Step }

// SmallestFitting returns the cheapest container (across the whole catalog,
// including per-dimension variants) whose allocation dominates demand. If no
// container fits, it returns the largest lock-step container and ok=false.
func (c *Catalog) SmallestFitting(demand Vector) (Container, bool) {
	best := -1
	for i, ct := range c.containers {
		if !ct.Alloc.Dominates(demand) {
			continue
		}
		if best < 0 || ct.Cost < c.containers[best].Cost {
			best = i
		}
	}
	if best < 0 {
		return c.Largest(), false
	}
	return c.containers[best], true
}

// CheapestWithin returns the cheapest container that dominates demand and
// costs at most budget. If none fits within budget, it returns the most
// expensive container affordable within budget (the paper's fallback when
// the desired container is budget-constrained) and ok=false. If even the
// smallest container exceeds budget, the smallest container is returned.
func (c *Catalog) CheapestWithin(demand Vector, budget float64) (Container, bool) {
	best := -1
	for i, ct := range c.containers {
		if ct.Cost > budget || !ct.Alloc.Dominates(demand) {
			continue
		}
		if best < 0 || ct.Cost < c.containers[best].Cost {
			best = i
		}
	}
	if best >= 0 {
		return c.containers[best], true
	}
	// Budget-constrained: most expensive affordable container.
	for i, ct := range c.containers {
		if ct.Cost > budget {
			continue
		}
		if best < 0 || ct.Cost > c.containers[best].Cost ||
			(ct.Cost == c.containers[best].Cost && ct.Alloc.Dominates(c.containers[best].Alloc)) {
			best = i
		}
	}
	if best >= 0 {
		return c.containers[best], false
	}
	return c.Smallest(), false
}

// DefaultCatalog returns the catalog used throughout the reproduction:
// eleven lock-step sizes C0…C10 with costs 7…270 units per billing interval
// and CPU spanning 0.5 to 32 cores (Section 7.1 of the paper), plus
// per-dimension high-CPU, high-memory and high-I/O variants of the mid-range
// sizes in the style of Figure 1.
func DefaultCatalog() *Catalog {
	type row struct {
		name  string
		cores float64
		memMB float64
		iops  float64
		logKB float64
		cost  float64
		step  int
	}
	rows := []row{
		{"C0", 0.5, 1024, 100, 256, 7, 0},
		{"C1", 1, 2048, 200, 512, 15, 1},
		{"C2", 2, 4096, 400, 1024, 30, 2},
		{"C3", 3, 6144, 600, 1536, 45, 3},
		{"C4", 4, 8192, 800, 2048, 60, 4},
		{"C5", 6, 12288, 1200, 3072, 90, 5},
		{"C6", 8, 16384, 1600, 4096, 120, 6},
		{"C7", 12, 24576, 2400, 6144, 160, 7},
		{"C8", 16, 32768, 3200, 8192, 200, 8},
		{"C9", 24, 49152, 4800, 12288, 240, 9},
		{"C10", 32, 65536, 6400, 16384, 270, 10},
	}
	var containers []Container
	for _, r := range rows {
		containers = append(containers, Container{
			Name:  r.name,
			Alloc: Vector{r.cores * 1000, r.memMB, r.iops, r.logKB},
			Cost:  r.cost,
			Step:  r.step,
		})
	}
	// Per-dimension variants: same base resources as the ladder size but
	// with one dimension doubled, at ~40% of the cost difference to the next
	// full size up (cheaper than scaling everything in lock step).
	for _, base := range []int{2, 3, 4, 5, 6} {
		b := containers[base]
		next := containers[base+1]
		surcharge := 0.4 * (next.Cost - b.Cost)
		containers = append(containers,
			Container{Name: b.Name + "-hicpu", Alloc: b.Alloc.With(CPU, 2*b.Alloc[CPU]), Cost: b.Cost + surcharge, Step: b.Step},
			Container{Name: b.Name + "-himem", Alloc: b.Alloc.With(Memory, 2*b.Alloc[Memory]), Cost: b.Cost + surcharge, Step: b.Step},
			Container{Name: b.Name + "-hiio", Alloc: b.Alloc.With(DiskIO, 2*b.Alloc[DiskIO]).With(LogIO, 2*b.Alloc[LogIO]), Cost: b.Cost + surcharge, Step: b.Step},
		)
	}
	cat, err := NewCatalog(containers)
	if err != nil {
		panic("resource: default catalog invalid: " + err.Error())
	}
	return cat
}

// LockStepCatalog returns the default catalog restricted to the eleven
// lock-step sizes (no per-dimension variants). Experiments that reproduce
// the paper's main results use this catalog.
func LockStepCatalog() *Catalog {
	full := DefaultCatalog()
	cat, err := NewCatalog(full.Ladder())
	if err != nil {
		panic("resource: lock-step catalog invalid: " + err.Error())
	}
	return cat
}
