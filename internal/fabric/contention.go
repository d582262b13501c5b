package fabric

import (
	"fmt"
	"math"

	"daasscale/internal/resource"
)

// Noisy-neighbor interference model. The additive capacity invariant (the
// sum of container allocations on a server never exceeds its capacity)
// models the *promised* isolation of the container abstraction, but real
// co-located tenants also share substrates the container boundary cannot
// partition cleanly: the buffer-pool's memory bandwidth, the log device's
// write head, and the CPU's last-level cache. URSA's capacity-planning
// framing (PAPERS.md) treats this contention as first-order: an
// over-packed node inflates every resident tenant's waits even while the
// allocation sums still "fit".
//
// The model here is deliberately simple and deterministic. Each server
// exposes three shared pressure channels, each backed by one resource
// dimension of the allocation vector. A channel's *effective* shared
// capacity is a configured fraction of the server's nominal capacity in
// the backing dimension (the substrate saturates before the allocation sum
// does). Pressure is the allocated demand over that effective capacity;
// overcommit is the part of pressure above 1; and the per-tenant
// wait-inflation multiplier grows linearly in overcommit up to a cap:
//
//	pressure[ch]  = allocated[backing(ch)] / (ShareFrac[ch] × capacity[backing(ch)])
//	inflation[ch] = min(MaxInflation, 1 + Slope × max(0, pressure[ch] − 1))
//
// A tenant suffers the pressure its *neighbors* put on the node — its own
// allocation is excluded from the sum it is inflated by, so a tenant alone
// on a node is never contended no matter how large its container. That is
// what makes the neighbor noisy: per-tenant inflation uses the node
// allocation minus the tenant's own container, while the node-level
// pressure and inflation reported for operators use the full sum. The
// function is a pure function of the server's allocation cache (exact
// integral sums, maintained in the serial apply phase), so it is
// bit-identical at any worker count.

// PressureChannel identifies one shared substrate of a database server.
type PressureChannel int

// The shared channels, each backed by one allocation dimension.
const (
	// ChannelBufferPool is the shared buffer-pool / memory-bandwidth
	// substrate, backed by the Memory dimension. Overcommit stalls page
	// accesses (WaitMemory).
	ChannelBufferPool PressureChannel = iota
	// ChannelLogDevice is the shared log device, backed by the LogIO
	// dimension. Overcommit inflates log-write service and waits
	// (WaitLogIO).
	ChannelLogDevice
	// ChannelCPUCache is the CPU cache-interference proxy, backed by the
	// CPU dimension. Overcommit inflates per-instruction service time and
	// CPU queueing (WaitCPU).
	ChannelCPUCache

	// NumPressureChannels is the number of shared channels.
	NumPressureChannels = 3
)

// PressureChannels lists the channels in canonical order.
var PressureChannels = [NumPressureChannels]PressureChannel{
	ChannelBufferPool, ChannelLogDevice, ChannelCPUCache,
}

// String names the channel.
func (c PressureChannel) String() string {
	switch c {
	case ChannelBufferPool:
		return "buffer-pool"
	case ChannelLogDevice:
		return "log-device"
	case ChannelCPUCache:
		return "cpu-cache"
	default:
		return fmt.Sprintf("pressurechannel(%d)", int(c))
	}
}

// Backing returns the allocation dimension the channel draws on.
func (c PressureChannel) Backing() resource.Kind {
	switch c {
	case ChannelBufferPool:
		return resource.Memory
	case ChannelLogDevice:
		return resource.LogIO
	default:
		return resource.CPU
	}
}

// Pressure is a server's per-channel demand over effective shared
// capacity. 1.0 means the channel is exactly saturated; above 1.0 the
// residents interfere.
type Pressure [NumPressureChannels]float64

// Inflation is a server's per-channel wait-inflation multiplier (≥ 1; all
// ones when the node is uncontended or the model is disabled).
type Inflation [NumPressureChannels]float64

// NoInflation is the identity multiplier vector.
func NoInflation() Inflation { return Inflation{1, 1, 1} }

// Max returns the dominant (largest) channel multiplier — the scalar used
// when a single "how contended is this node" number is needed, e.g. for
// predicted-p95 checks in the placement optimizer.
func (i Inflation) Max() float64 {
	m := i[0]
	for k := 1; k < NumPressureChannels; k++ {
		if i[k] > m {
			m = i[k]
		}
	}
	return m
}

// Contention configures the interference model. The zero value disables
// it entirely: inflation is identity everywhere and the fabric behaves
// exactly as the historical additive model (the zero-contention
// equivalence runs pin this bit-for-bit).
type Contention struct {
	// Enable turns the model on.
	Enable bool
	// ShareFrac is, per channel, the fraction of the server's nominal
	// capacity in the backing dimension that the shared substrate
	// actually provides. Below 1, dense packing saturates the shared
	// channel before the additive invariant does. Zero entries take the
	// defaults (buffer pool 0.70, log device 0.60, CPU cache 0.80).
	ShareFrac [NumPressureChannels]float64
	// Slope is the inflation multiplier gained per unit of overcommit
	// (0 → 1.5).
	Slope float64
	// MaxInflation caps the per-channel multiplier (0 → 4).
	MaxInflation float64
}

// Enabled reports whether the model is on.
func (c Contention) Enabled() bool { return c.Enable }

// DefaultShareFrac returns the default effective-capacity fraction of a
// channel.
func DefaultShareFrac(ch PressureChannel) float64 {
	switch ch {
	case ChannelBufferPool:
		return 0.70
	case ChannelLogDevice:
		return 0.60
	default: // ChannelCPUCache
		return 0.80
	}
}

// withDefaults resolves zero knobs.
func (c Contention) withDefaults() Contention {
	for _, ch := range PressureChannels {
		if c.ShareFrac[ch] == 0 {
			c.ShareFrac[ch] = DefaultShareFrac(ch)
		}
	}
	if c.Slope == 0 {
		c.Slope = 1.5
	}
	if c.MaxInflation == 0 {
		c.MaxInflation = 4
	}
	return c
}

// Validate rejects non-finite or out-of-range knobs.
func (c Contention) Validate() error {
	for _, ch := range PressureChannels {
		f := c.ShareFrac[ch]
		if math.IsNaN(f) || f < 0 || f > 1 {
			return fmt.Errorf("fabric: contention ShareFrac[%s] must be in [0,1], got %v", ch, f)
		}
	}
	if math.IsNaN(c.Slope) || c.Slope < 0 {
		return fmt.Errorf("fabric: contention Slope must be ≥ 0, got %v", c.Slope)
	}
	if math.IsNaN(c.MaxInflation) || (c.MaxInflation != 0 && c.MaxInflation < 1) {
		return fmt.Errorf("fabric: contention MaxInflation must be ≥ 1 (or 0 for the default), got %v", c.MaxInflation)
	}
	return nil
}

// SetContention installs the interference model on the fabric. Call once,
// before the run; the model must validate.
func (f *Fabric) SetContention(c Contention) error {
	if err := c.Validate(); err != nil {
		return err
	}
	f.cont = c
	f.contResolved = c.withDefaults()
	return nil
}

// pressureOf computes the channel pressures for an allocation sum against
// a capacity, under the fabric's resolved model (defaults when none was
// installed — pressure is a useful report quantity even with the model
// off; inflation is identity then).
func (f *Fabric) pressureOf(alloc, capacity resource.Vector) Pressure {
	m := f.contResolved
	if !m.Enabled() {
		m = Contention{}.withDefaults()
	}
	var p Pressure
	for _, ch := range PressureChannels {
		k := ch.Backing()
		eff := m.ShareFrac[ch] * capacity[k]
		if eff > 0 {
			p[ch] = alloc[k] / eff
		}
	}
	return p
}

// inflationOf maps channel pressures to wait-inflation multipliers. The
// identity vector when the model is disabled.
func (f *Fabric) inflationOf(p Pressure) Inflation {
	inf := NoInflation()
	if !f.cont.Enabled() {
		return inf
	}
	m := f.contResolved
	for _, ch := range PressureChannels {
		if over := p[ch] - 1; over > 0 {
			v := 1 + m.Slope*over
			if v > m.MaxInflation {
				v = m.MaxInflation
			}
			inf[ch] = v
		}
	}
	return inf
}

// ServerPressure returns server i's current channel pressures.
func (f *Fabric) ServerPressure(i int) Pressure {
	s := f.servers[i]
	return f.pressureOf(s.Allocated(), s.Capacity)
}

// ServerInflation returns server i's current wait-inflation multipliers
// over the full allocation sum (identity when the model is disabled or the
// node is uncontended). This is the operator-facing node view; residents
// individually suffer TenantInflation, which excludes their own container.
func (f *Fabric) ServerInflation(i int) Inflation {
	return f.inflationOf(f.ServerPressure(i))
}

// TenantPressure returns the pressure the tenant's neighbors put on its
// node's shared channels — the node allocation minus the tenant's own
// container — and the index of its hosting server.
func (f *Fabric) TenantPressure(tenantID string) (Pressure, int, bool) {
	idx, ok := f.placement[tenantID]
	if !ok {
		return Pressure{}, -1, false
	}
	s := f.servers[idx]
	neigh := s.Allocated().Sub(s.tenants[tenantID].Alloc)
	return f.pressureOf(neigh, s.Capacity), idx, true
}

// TenantInflation returns the inflation the tenant currently suffers from
// its neighbors and the index of its hosting server. A tenant alone on a
// node always gets the identity vector.
func (f *Fabric) TenantInflation(tenantID string) (Inflation, int, bool) {
	p, idx, ok := f.TenantPressure(tenantID)
	if !ok {
		return NoInflation(), -1, false
	}
	return f.inflationOf(p), idx, true
}
