package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// The generator is the benchmark's own layer ("loadgen"): it turns -seed
// into per-tenant telemetry streams and pre-encodes them, so the daemon
// receives only generated inputs and the timed loops only copy bytes.
//
// serve.SynthSnapshot is not used: its phase is len(tenantID) % 7, so every
// equally long id gets the identical stream and the policy resizes in
// lockstep across the fleet. Here each tenant draws one of four load shapes
// and its parameters from the seed.

// cycleLen is the period of a tenant's stream in billing intervals. A
// tenant's snapshot for interval i is its cycle's entry i mod cycleLen:
// 1000 tenants x 64 pre-encoded snapshots is ~30 MB, where one encoding per
// (tenant, interval) of a run would be gigabytes.
const cycleLen = 64

// The four load shapes a tenant may draw.
const (
	shapeSteady = iota
	shapeDiurnal
	shapeBursty
	shapeIdle
	numShapes
)

// generator holds every tenant's cycle, both as snapshots (for the isolated
// layer replays) and as encoded JSON objects (for request bodies).
type generator struct {
	ids   []string
	snaps [][]telemetry.Snapshot // [tenant][cycle position]
	frags [][][]byte             // the same, json-encoded
}

func tenantID(i int) string { return fmt.Sprintf("t%05d", i) }

// tenantIndex inverts tenantID; -1 when id is not one of ours.
func tenantIndex(id string) int {
	if len(id) != 6 || id[0] != 't' {
		return -1
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return -1
	}
	return n
}

// load is a tenant's offered load at cycle position i as a fraction of
// what its reported container can serve: below ~0.3 the estimator sees LOW
// utilization, above ~0.7 with long waits it sees demand for a larger one.
type loadFn func(i int) float64

func drawShape(rng *rand.Rand) loadFn {
	noise := make([]float64, cycleLen)
	for i := range noise {
		noise[i] = 1 + 0.06*(2*rng.Float64()-1)
	}
	switch rng.Intn(numShapes) {
	case shapeSteady:
		level := 0.35 + 0.25*rng.Float64()
		return func(i int) float64 { return level * noise[i] }
	case shapeDiurnal:
		// One day per cycle: the peak crosses the scale-up band for a few
		// intervals, the night sits in the scale-down band.
		lo, hi := 0.12+0.1*rng.Float64(), 0.8+0.3*rng.Float64()
		phase := rng.Float64() * 2 * math.Pi
		return func(i int) float64 {
			x := 0.5 + 0.5*math.Sin(2*math.Pi*float64(i)/cycleLen+phase)
			return (lo + (hi-lo)*x*x) * noise[i]
		}
	case shapeBursty:
		base := 0.2 + 0.15*rng.Float64()
		burst := make([]float64, cycleLen)
		for n := 2 + rng.Intn(2); n > 0; n-- {
			at, width, height := rng.Intn(cycleLen), 3+rng.Intn(5), 0.85+0.4*rng.Float64()
			for j := 0; j < width; j++ {
				burst[(at+j)%cycleLen] = height
			}
		}
		return func(i int) float64 { return math.Max(base, burst[i]) * noise[i] }
	default:
		level := 0.03 + 0.05*rng.Float64()
		blip := rng.Intn(cycleLen)
		return func(i int) float64 {
			if i == blip {
				return 0.5 * noise[i]
			}
			return level * noise[i]
		}
	}
}

// snapshotAt turns a load fraction into the counters a database node would
// report: utilization tracks load, waits and latency grow sharply once the
// container saturates (the signals the estimator's rules combine).
func snapshotAt(i int, load float64) telemetry.Snapshot {
	util := math.Min(load, 1)
	over := math.Max(0, load-0.65)
	queue := 1 + 40*over*over
	wait := 30_000 * load * queue
	return telemetry.Snapshot{
		Interval:        i,
		Container:       "C2",
		Step:            2,
		Cost:            30,
		Utilization:     resource.Vector{util, 0.4 + 0.3*util, util * 0.7, util * 0.4},
		UtilizationPeak: resource.Vector{math.Min(util*1.2, 1), 0.5 + 0.3*util, math.Min(util, 1), util * 0.5},
		WaitMs: [telemetry.NumWaitClasses]float64{
			wait, wait * 0.1, wait * 0.45, wait * 0.15, 400 * load, 90 * load, 50,
		},
		AvgLatencyMs:   12 + 25*load*queue,
		P95LatencyMs:   30 + 70*load*queue,
		Transactions:   36_000 * load,
		OfferedRPS:     600 * load,
		MemoryUsedMB:   1500 + 2200*util,
		PhysicalReads:  9_000 * load,
		PhysicalWrites: 2_500 * load,
	}
}

// newGenerator draws tenants streams from seed. Each tenant has its own
// rand stream, so tenant k's cycle does not depend on the tenant count.
func newGenerator(seed int64, tenants int) (*generator, error) {
	g := &generator{
		ids:   make([]string, tenants),
		snaps: make([][]telemetry.Snapshot, tenants),
		frags: make([][][]byte, tenants),
	}
	for t := 0; t < tenants; t++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(t)))
		g.ids[t] = tenantID(t)
		load := drawShape(rng)
		g.snaps[t] = make([]telemetry.Snapshot, cycleLen)
		g.frags[t] = make([][]byte, cycleLen)
		for i := 0; i < cycleLen; i++ {
			g.snaps[t][i] = snapshotAt(i, load(i))
			b, err := json.Marshal(g.snaps[t][i])
			if err != nil {
				return nil, fmt.Errorf("loadgen: encoding snapshot: %w", err)
			}
			g.frags[t][i] = b
		}
	}
	return g, nil
}

func (g *generator) tenants() int { return len(g.ids) }

// snapshot is tenant t's telemetry for interval seq.
func (g *generator) snapshot(t, seq int) telemetry.Snapshot {
	s := g.snaps[t][seq%cycleLen]
	s.Interval = seq
	return s
}

// appendBody appends the ingest request body carrying n consecutive
// snapshots of tenant t starting at seq: the single-snapshot form for
// n == 1, a batch otherwise. Only the sequence numbers are formatted here;
// the snapshots are the pre-encoded cycle entries.
func (g *generator) appendBody(dst []byte, t, seq, n int) []byte {
	one := func(dst []byte, seq int) []byte {
		dst = append(dst, `{"seq":`...)
		dst = strconv.AppendInt(dst, int64(seq), 10)
		dst = append(dst, `,"snapshot":`...)
		dst = append(dst, g.frags[t][seq%cycleLen]...)
		return append(dst, '}')
	}
	if n == 1 {
		return one(dst, seq)
	}
	dst = append(dst, `{"batch":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = one(dst, seq+i)
	}
	return append(dst, `]}`...)
}
