package engine

import (
	"math"

	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// TickBatch advances the simulation by len(offered) one-second ticks —
// typically a whole billing interval in one call. This loop is the only
// place the engine's physics is written; Tick is a one-element batch.
// However a run of ticks is split into batches, the output is the same bit
// for bit: the same RNG draws in the same sequence, the same
// floating-point operations in the same association (TestKernelGolden and
// the split-invariance property tests pin it).
//
// Everything that cannot change within a batch is computed once above the
// loop — container capacities and their queue caps, the profile's
// per-transaction constants, the memory ceiling and warm cap,
// option-derived latency terms — and all mutable engine state (buffer
// pool, backlogs, shed counters, the accumulator's sums) lives in locals
// for the whole batch instead of bouncing through the Engine struct on
// every tick. The rule for editing it: a hoist never re-associates a float
// expression. A sub-expression may move above the loop only if every one
// of its operands is batch-invariant and it keeps its operand order (e.g.
// `p.LatchProb * 1.5` may; `off * lcp * lhm / 1000` may not, because it
// depends on the tick, and neither may `lcp * lhm / 1000` on its own,
// because that changes the association). See DESIGN.md §13.
func (e *Engine) TickBatch(offered []float64) {
	if len(offered) == 0 {
		return
	}
	o := &e.opts
	p := &e.prof

	// --- Interval invariants (constant between SetContainer /
	// SetMemoryTargetMB calls, i.e. for the whole batch) -----------------
	memCap := e.effectiveMemoryMB()
	ws := e.w.WorkingSetMB
	coldData := e.w.DataSizeMB - ws
	hs := e.w.HotspotFraction
	coldShare := 1 - hs
	warmCap := math.Min(memCap, e.w.DataSizeMB)
	warmPerRead := o.WarmMBPerPhysRead

	logicalPerTxn := p.LogicalReads
	writePerTxn := p.WritePages
	cpuPerTxn := p.CPUms
	logPerTxn := p.LogKB
	lcp := p.LockConflictProb
	lhm := p.LockHoldMs
	perTxnLatch := p.LatchProb * 1.5

	cpuCap := e.cont.Alloc[resource.CPU]
	ioCap := e.cont.Alloc[resource.DiskIO]
	logCap := e.cont.Alloc[resource.LogIO]
	maxQCPU := o.MaxQueueSeconds * cpuCap
	maxQIO := o.MaxQueueSeconds * ioCap
	maxQLog := o.MaxQueueSeconds * logCap
	maxDelay := o.MaxQueueSeconds * 1000

	ck := o.CheckpointEverySec
	ioServiceMs := o.IOServiceMs
	logSvcPerTxn := logPerTxn * o.LogServiceMsPerKB
	memStallMs := o.MemStallMs
	// Shared-channel contention (noisy neighbors on the hosting node)
	// multiplies the affected service and wait terms. The multipliers are
	// constant for the whole batch (a hosting runner installs them only
	// between intervals) and exactly 1 outside cluster runs; x*1.0 is an
	// IEEE-754 identity, so the uncontended arithmetic is bit-for-bit the
	// pre-contention one.
	contCPU := e.contention.CPU
	contMem := e.contention.Memory
	contLog := e.contention.LogIO
	// The first two terms of perTxnLatency, in its left-to-right order.
	basePlusCPU := o.BaseLatencyMs + cpuPerTxn*contCPU
	logSvcLat := logSvcPerTxn * contLog // perTxnLatency's log-service term
	sigma := o.LatencySigma
	noiseOn := o.NoiseProb > 0
	noiseProb := o.NoiseProb
	noiseScale := o.NoiseScale
	rng := e.rng

	// --- Mutable engine state, held in locals for the whole batch -------
	usedMB := e.usedMB
	dirty := e.dirtyPages
	bCPU, bIO, bLog := e.backlogCPUms, e.backlogIOOps, e.backlogLogKB
	shCPU, shIO, shLog := e.sheddedCPUms, e.sheddedIOOps, e.sheddedLogKB
	tickNo := e.tick

	a := &e.acc
	sCPUsum, cCPUsum := a.servedCPU, a.capCPU
	sIOsum, cIOsum := a.servedIO, a.capIO
	sLogsum, cLogsum := a.servedLog, a.capLog
	peakV := a.peakUtil
	wl := a.waitMs
	lat := a.latSamples
	txns := a.txns
	offSum := a.offeredSum
	pReadsSum := a.physReads
	pWritesSum := a.physWrites
	ticksN := a.ticks

	// drain advances one fluid queue by a tick: demand joins the backlog,
	// up to capacity units are served, the backlog is capped at maxQ
	// (MaxQueueSeconds of capacity; excess is shed), and the queueing delay
	// (ms) a new arrival would experience is returned.
	drain := func(backlog *float64, demand, capacity, maxQ float64, shed *float64) (served, delayMs float64) {
		total := *backlog + demand
		served = math.Min(total, capacity)
		rest := total - served
		if rest > maxQ {
			*shed += rest - maxQ
			rest = maxQ
		}
		*backlog = rest
		if capacity > 0 {
			delayMs = rest / capacity * 1000
		} else if rest > 0 {
			delayMs = maxDelay
		}
		return served, delayMs
	}
	// congest is the graded queueing penalty below saturation: even when
	// the queue drains every tick, service-time variance makes latency climb
	// steeply as utilization approaches the allocation (an M/M/1-style
	// ρ/(1−ρ) term). This is what lets a loose latency goal ride a
	// container near saturation while a tight goal needs headroom.
	congest := func(demand, capacity float64) float64 {
		if capacity <= 0 {
			return 0
		}
		rho := demand / capacity
		if rho > 0.98 {
			rho = 0.98
		}
		f := rho * rho / (1 - rho)
		if f > 25 {
			f = 25
		}
		return f
	}
	// waitMs: requests whose work is still queued wait the whole tick; the
	// number of waiting requests is backlog divided by per-request demand.
	waitMs := func(backlog, perTxn float64) float64 {
		if backlog <= 0 {
			return 0
		}
		per := math.Max(perTxn, 0.1)
		return backlog / per * 1000
	}

	for _, off := range offered {
		if off < 0 {
			off = 0
		}

		// --- Buffer pool -------------------------------------------------
		if usedMB > memCap {
			usedMB = memCap // forced eviction
		}
		var hHot, hCold float64
		if ws <= 0 {
			hHot = 1
		} else {
			hHot = math.Min(1, usedMB/ws)
		}
		if coldData <= 0 {
			hCold = 1
		} else {
			hCold = math.Min(1, math.Max(0, usedMB-ws)/coldData)
		}
		missFrac := hs*(1-hHot) + coldShare*(1-hCold)
		logicalReads := off * logicalPerTxn
		physReads := logicalReads * missFrac
		physWrites := off * writePerTxn
		// Checkpoints defer a share of the page flushes, then burst them.
		// The long-run write volume is identical; the telemetry gets
		// spikier.
		if ck > 0 {
			deferred := physWrites * 0.5
			physWrites -= deferred
			dirty += deferred
			if tickNo%ck == ck-1 {
				physWrites += dirty
				dirty = 0
			}
		}

		// --- Fluid queues ------------------------------------------------
		perTxnPhysIO := 0.0
		if off > 0 {
			perTxnPhysIO = (physReads + physWrites) / off
		}
		cpuDemand := off*cpuPerTxn + (physReads+physWrites)*0.03 // I/O handling CPU
		servedCPU, dCPU := drain(&bCPU, cpuDemand, cpuCap, maxQCPU, &shCPU)

		ioDemand := physReads + physWrites
		servedIO, dIO := drain(&bIO, ioDemand, ioCap, maxQIO, &shIO)

		// Only *served* reads bring pages into the cache: warming is bounded
		// by the container's I/O capacity, which is why recovering an
		// evicted working set takes so long (Figure 14's slow tail).
		if ioDemand > 0 {
			servedReads := servedIO * physReads / ioDemand
			usedMB = math.Min(warmCap, usedMB+servedReads*warmPerRead)
		}

		logDemand := off * logPerTxn
		servedLog, dLog := drain(&bLog, logDemand, logCap, maxQLog, &shLog)

		cpuCongest := cpuPerTxn * congest(cpuDemand, cpuCap) * contCPU
		ioCongest := perTxnPhysIO * ioServiceMs * congest(ioDemand, ioCap)
		logCongest := logSvcPerTxn * congest(logDemand, logCap) * contLog

		// --- Wait statistics ---------------------------------------------
		wl[telemetry.WaitCPU] += waitMs(bCPU, cpuPerTxn) * contCPU
		wl[telemetry.WaitDiskIO] += waitMs(bIO, perTxnPhysIO)
		wl[telemetry.WaitLogIO] += waitMs(bLog, logPerTxn) * contLog

		// Hot-set buffer misses stall requests on page-ins; buffer-pool
		// contention inflates each stall.
		hotMissPerTxn := hs * (1 - hHot)
		memStall := hotMissPerTxn * memStallMs * contMem
		wl[telemetry.WaitMemory] += off * memStall

		// Application locks: waiters queue behind concurrent holders. Queue
		// length follows Little's law on conflicting transactions; waits are
		// therefore superlinear in offered load and independent of container
		// size.
		holders := off * lcp * lhm / 1000
		perTxnLockWait := lcp * holders * lhm
		wl[telemetry.WaitLock] += off * perTxnLockWait

		wl[telemetry.WaitLatch] += off * perTxnLatch

		sys := 30.0
		if noiseOn && rng.Float64() < noiseProb {
			// Transient system activity (checkpoint, backup) — an outlier
			// spike.
			sys *= noiseScale
			cls := telemetry.WaitClasses[rng.Intn(telemetry.NumWaitClasses)]
			wl[cls] += sys * 10
		}
		wl[telemetry.WaitSystem] += sys

		// --- Latency -----------------------------------------------------
		if off > 0 {
			perTxnLatency := basePlusCPU +
				perTxnPhysIO*ioServiceMs +
				logSvcLat +
				cpuCongest + ioCongest + logCongest +
				dCPU + dIO + dLog +
				memStall +
				perTxnLockWait +
				perTxnLatch
			n := int(math.Min(off, MaxLatencySamplesPerTick))
			if n < 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				lat = append(lat, perTxnLatency*math.Exp(sigma*rng.NormFloat64()))
			}
			txns += off
		}

		// --- Accumulate --------------------------------------------------
		sCPUsum += servedCPU
		cCPUsum += cpuCap
		sIOsum += servedIO
		cIOsum += ioCap
		sLogsum += servedLog
		cLogsum += logCap
		if cpuCap > 0 {
			if r := servedCPU / cpuCap; r > peakV[resource.CPU] {
				peakV[resource.CPU] = r
			}
		}
		if ioCap > 0 {
			if r := servedIO / ioCap; r > peakV[resource.DiskIO] {
				peakV[resource.DiskIO] = r
			}
		}
		if logCap > 0 {
			if r := servedLog / logCap; r > peakV[resource.LogIO] {
				peakV[resource.LogIO] = r
			}
		}
		offSum += off
		pReadsSum += physReads
		pWritesSum += physWrites
		ticksN++
		tickNo++
	}

	// --- Write the batch's state back ------------------------------------
	e.usedMB = usedMB
	e.dirtyPages = dirty
	e.backlogCPUms, e.backlogIOOps, e.backlogLogKB = bCPU, bIO, bLog
	e.sheddedCPUms, e.sheddedIOOps, e.sheddedLogKB = shCPU, shIO, shLog
	e.tick = tickNo
	a.servedCPU, a.capCPU = sCPUsum, cCPUsum
	a.servedIO, a.capIO = sIOsum, cIOsum
	a.servedLog, a.capLog = sLogsum, cLogsum
	a.peakUtil = peakV
	a.waitMs = wl
	a.latSamples = lat
	a.txns = txns
	a.offeredSum = offSum
	a.physReads = pReadsSum
	a.physWrites = pWritesSum
	a.ticks = ticksN
}
