// Package fabric implements the DaaS management fabric of the paper's
// Figure 3: a cluster of database servers, each hosting a set of tenant
// containers, with the fabric deciding co-location and executing the
// container resize operations the auto-scaling logic issues ("the model
// issues a container resize command to the management fabric of the DaaS
// which then executes the resize operation").
//
// The fabric guarantees the resource-isolation invariant behind the
// container abstraction: the sum of container allocations on a server never
// exceeds the server's capacity. A resize is executed in place when the
// hosting server has headroom and by migrating the tenant to another server
// otherwise; if no server can host the requested container, the resize is
// refused and the tenant keeps its current container.
package fabric

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"daasscale/internal/resource"
)

// ErrRefused is the sentinel wrapped by every resize the fabric cannot
// satisfy — no server in the cluster can host the requested container.
// Callers branch with errors.Is(err, ErrRefused) to distinguish a refusal
// (the tenant keeps its container, a retry may succeed once the cluster
// changes) from a genuine fault such as resizing an unplaced tenant.
var ErrRefused = errors.New("fabric: resize refused")

// PlacementPolicy selects the server for a new or migrating tenant among
// those with room.
type PlacementPolicy int

// Placement policies.
const (
	// FirstFit picks the lowest-numbered server with room.
	FirstFit PlacementPolicy = iota
	// BestFit picks the server whose normalized dominant-resource headroom
	// after placement is smallest (dense packing across every dimension,
	// fewest servers touched).
	BestFit
	// WorstFit picks the server whose normalized dominant-resource
	// headroom after placement is largest (load balancing, most room for
	// future growth in place).
	WorstFit
)

// String names the policy.
func (p PlacementPolicy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	default:
		return fmt.Sprintf("placementpolicy(%d)", int(p))
	}
}

// Server is one database server hosting tenant containers.
type Server struct {
	// ID identifies the server within the cluster.
	ID int
	// Capacity is the server's total resources.
	Capacity resource.Vector

	tenants map[string]resource.Container
	// alloc caches the sum of hosted container allocations, maintained
	// incrementally on place/remove/resize. Catalog allocations are
	// integral floats whose sums stay far below 2^53, so every add and
	// subtract is exact and the cache is bit-identical to a recomputation
	// in any order (Validate recomputes and checks). Placement scans call
	// Fits once per server, which made the per-call map walk the cluster
	// hot path's dominant fabric cost.
	alloc resource.Vector
}

// newServer creates an empty server.
func newServer(id int, capacity resource.Vector) *Server {
	return &Server{ID: id, Capacity: capacity, tenants: make(map[string]resource.Container)}
}

// Allocated returns the sum of hosted container allocations.
func (s *Server) Allocated() resource.Vector {
	return s.alloc
}

// recomputeAllocated sums the hosted allocations from scratch — the
// invariant checks' independent view of the cached sum.
func (s *Server) recomputeAllocated() resource.Vector {
	var sum resource.Vector
	for _, c := range s.tenants {
		sum = sum.Add(c.Alloc)
	}
	return sum
}

// Headroom returns the capacity not yet promised to containers.
func (s *Server) Headroom() resource.Vector {
	return s.Capacity.Sub(s.Allocated())
}

// Fits reports whether an additional allocation would respect the server's
// capacity.
func (s *Server) Fits(alloc resource.Vector) bool {
	return s.Capacity.Dominates(s.Allocated().Add(alloc))
}

// TenantCount returns the number of hosted tenants.
func (s *Server) TenantCount() int { return len(s.tenants) }

// Tenants returns the hosted tenant IDs in sorted order.
func (s *Server) Tenants() []string {
	out := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Fabric is the cluster-wide placement and resize executor.
type Fabric struct {
	servers []*Server
	// placement maps tenant ID to server index.
	placement map[string]int
	policy    PlacementPolicy

	// cont is the installed interference model (zero = disabled);
	// contResolved is the same model with defaults filled in.
	cont         Contention
	contResolved Contention

	migrations int
	refusals   int
}

// New creates a fabric of n identical servers.
func New(n int, capacity resource.Vector, policy PlacementPolicy) (*Fabric, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fabric: need at least one server, got %d", n)
	}
	for _, k := range resource.Kinds {
		if capacity[k] <= 0 {
			return nil, fmt.Errorf("fabric: server capacity must be positive in every dimension, got %v", capacity)
		}
	}
	f := &Fabric{policy: policy, placement: make(map[string]int)}
	for i := 0; i < n; i++ {
		f.servers = append(f.servers, newServer(i, capacity))
	}
	return f, nil
}

// Servers returns the cluster's servers (shared, do not mutate).
func (f *Fabric) Servers() []*Server { return f.servers }

// Migrations returns how many tenant migrations resizes have required.
func (f *Fabric) Migrations() int { return f.migrations }

// Refusals returns how many resize requests the fabric could not satisfy.
func (f *Fabric) Refusals() int { return f.refusals }

// ServerOf returns the server currently hosting the tenant.
func (f *Fabric) ServerOf(tenantID string) (*Server, bool) {
	idx, ok := f.placement[tenantID]
	if !ok {
		return nil, false
	}
	return f.servers[idx], true
}

// dominantHeadroomAfter scores a candidate server for an allocation: the
// smallest normalized remaining headroom across all resource dimensions
// after placement — the dominant (tightest) resource's free fraction. A
// low score means the server would be densely used in at least one
// dimension; a high score means room everywhere.
func dominantHeadroomAfter(s *Server, alloc resource.Vector) float64 {
	score := math.Inf(1)
	head := s.Headroom()
	for _, k := range resource.Kinds {
		if s.Capacity[k] <= 0 {
			continue
		}
		if frac := (head[k] - alloc[k]) / s.Capacity[k]; frac < score {
			score = frac
		}
	}
	return score
}

// pick chooses a server with room for alloc according to the placement
// policy; exclude (≥0) skips one server (the tenant's current host during a
// migration search). Returns -1 when no server fits.
//
// BestFit/WorstFit rank by normalized dominant-resource headroom after
// placement, so a memory- or log-heavy container packs against the
// dimension it actually exhausts. All ties break to the lower server ID
// through strict inequality on an in-order scan.
func (f *Fabric) pick(alloc resource.Vector, exclude int) int {
	best := -1
	var bestScore float64
	for i, s := range f.servers {
		if i == exclude || !s.Fits(alloc) {
			continue
		}
		if f.policy != BestFit && f.policy != WorstFit {
			return i // FirstFit: the lowest-numbered server with room
		}
		score := dominantHeadroomAfter(s, alloc)
		lower := f.policy == BestFit
		if best < 0 || (lower && score < bestScore) || (!lower && score > bestScore) {
			best, bestScore = i, score
		}
	}
	return best
}

// Place admits a new tenant with its initial container.
func (f *Fabric) Place(tenantID string, c resource.Container) error {
	if _, dup := f.placement[tenantID]; dup {
		return fmt.Errorf("fabric: tenant %q already placed", tenantID)
	}
	idx := f.pick(c.Alloc, -1)
	if idx < 0 {
		return fmt.Errorf("fabric: no server can host tenant %q with container %s", tenantID, c.Name)
	}
	f.servers[idx].tenants[tenantID] = c
	f.servers[idx].alloc = f.servers[idx].alloc.Add(c.Alloc)
	f.placement[tenantID] = idx
	return nil
}

// Resize executes a container resize: in place when the hosting server has
// headroom for the delta, otherwise by migrating the tenant to a server
// that can host the new container. Returns whether a migration happened.
// When no server can host the new size, the resize is refused with an error
// and the tenant keeps its current container.
func (f *Fabric) Resize(tenantID string, to resource.Container) (migrated bool, err error) {
	idx, ok := f.placement[tenantID]
	if !ok {
		return false, fmt.Errorf("fabric: tenant %q not placed", tenantID)
	}
	host := f.servers[idx]
	cur := host.tenants[tenantID]
	if cur.Name == to.Name {
		return false, nil
	}
	// In-place: the server must fit the allocation delta (shrinking always
	// fits).
	delta := to.Alloc.Sub(cur.Alloc)
	if host.Fits(delta.Max(resource.Vector{})) {
		host.tenants[tenantID] = to
		host.alloc = host.alloc.Add(delta)
		return false, nil
	}
	// Migration: find another server with room for the full new container.
	dst := f.pick(to.Alloc, idx)
	if dst < 0 {
		f.refusals++
		return false, fmt.Errorf("%w: no server can host tenant %q at %s", ErrRefused, tenantID, to.Name)
	}
	delete(host.tenants, tenantID)
	host.alloc = host.alloc.Sub(cur.Alloc)
	f.servers[dst].tenants[tenantID] = to
	f.servers[dst].alloc = f.servers[dst].alloc.Add(to.Alloc)
	f.placement[tenantID] = dst
	f.migrations++
	return true, nil
}

// Migrate moves a tenant to a specific server — the primitive the
// placement optimizer's plans execute through (each move routed through
// the actuation channel by the cluster runner, so it is failable and
// charged). Moving a tenant to its current server is a no-op. When the
// destination cannot fit the tenant's container — cluster state may have
// changed since the plan was computed — the move is refused with an
// ErrRefused-wrapping error and the placement is untouched.
func (f *Fabric) Migrate(tenantID string, dst int) error {
	idx, ok := f.placement[tenantID]
	if !ok {
		return fmt.Errorf("fabric: tenant %q not placed", tenantID)
	}
	if dst < 0 || dst >= len(f.servers) {
		return fmt.Errorf("fabric: no server %d", dst)
	}
	if dst == idx {
		return nil
	}
	host := f.servers[idx]
	c := host.tenants[tenantID]
	if !f.servers[dst].Fits(c.Alloc) {
		return fmt.Errorf("%w: server %d cannot host tenant %q at %s", ErrRefused, dst, tenantID, c.Name)
	}
	delete(host.tenants, tenantID)
	host.alloc = host.alloc.Sub(c.Alloc)
	f.servers[dst].tenants[tenantID] = c
	f.servers[dst].alloc = f.servers[dst].alloc.Add(c.Alloc)
	f.placement[tenantID] = dst
	f.migrations++
	return nil
}

// Validate checks the cluster invariant: no server is overcommitted and the
// placement index matches the servers' tenant maps.
func (f *Fabric) Validate() error {
	seen := map[string]int{}
	for i, s := range f.servers {
		if got := s.recomputeAllocated(); got != s.alloc {
			return fmt.Errorf("fabric: server %d allocation cache drifted: cached %v, actual %v", i, s.alloc, got)
		}
		if !s.Capacity.Dominates(s.Allocated()) {
			return fmt.Errorf("fabric: server %d overcommitted: %v > %v", i, s.Allocated(), s.Capacity)
		}
		for id := range s.tenants {
			seen[id] = i
		}
	}
	if len(seen) != len(f.placement) {
		return fmt.Errorf("fabric: placement index out of sync: %d vs %d tenants", len(f.placement), len(seen))
	}
	for id, idx := range f.placement {
		if seen[id] != idx {
			return fmt.Errorf("fabric: tenant %q indexed on server %d but hosted on %d", id, idx, seen[id])
		}
	}
	return nil
}

// UtilizationByResource returns, per server, the allocated fraction of
// every resource dimension — the fabric-level view a service operator
// watches, and the node report table's backing data.
func (f *Fabric) UtilizationByResource() []resource.Vector {
	out := make([]resource.Vector, len(f.servers))
	for i, s := range f.servers {
		alloc := s.Allocated()
		for _, k := range resource.Kinds {
			if s.Capacity[k] > 0 {
				out[i][k] = alloc[k] / s.Capacity[k]
			}
		}
	}
	return out
}

// Utilization returns, per server, the allocated fraction of CPU — a thin
// wrapper over UtilizationByResource retained for the historical callers.
func (f *Fabric) Utilization() []float64 {
	byRes := f.UtilizationByResource()
	out := make([]float64, len(byRes))
	for i, u := range byRes {
		out[i] = u[resource.CPU]
	}
	return out
}
