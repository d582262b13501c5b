package engine

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"daasscale/internal/resource"
	"daasscale/internal/workload"
)

// goldenKernel pins the tick kernel's output bit for bit: the sha256 of
// every trial's dump (see kernelTrial.run), per suite. The constants were
// captured while the engine still had a second, hand-mirrored per-call
// kernel, by driving that kernel through Tick — so they are that kernel's
// output, not the batch loop's. They change only with an intentional,
// documented change to the engine's physics: a mismatch prints the new
// hash to paste here.
var goldenKernel = map[string]string{
	"plain":      "24b58003129bfdd773bea58ec1d341a570919b64ca686fc69e08db6371212bbd",
	"contention": "c3ff30e197ce806e9ea45f1232fa2c0708801f4324e0c8bb5bf8081be494c8a6",
}

// dumpExact writes v with every float in hexadecimal, so two dumps agree
// only if the values agree bit for bit. fmt's %x alone would not do:
// resource.Vector has a String method that rounds, and %x prefers it.
func dumpExact(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		fmt.Fprintf(w, "%x ", v.Float())
	case reflect.Int:
		fmt.Fprintf(w, "%d ", v.Int())
	case reflect.String:
		fmt.Fprintf(w, "%q ", v.String())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d ", v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpExact(w, v.Index(i))
		}
		io.WriteString(w, "] ")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dumpExact(w, v.Field(i))
		}
	default:
		panic("dumpExact: unhandled kind " + v.Kind().String())
	}
}

// kernelTrial is one randomized engine configuration with its load script:
// the offered loads of every interval and, for the contention suite, the
// multipliers installed before each.
type kernelTrial struct {
	w         *workload.Workload
	cont      resource.Container
	opts      Options
	seed      int64
	balloonMB float64 // 0 = no ballooning target
	loads     [][]float64
	mult      []Contention // per interval; nil = never installed
}

// randBatchWorkload draws a randomized workload: the three standard
// families plus fully randomized CPU/IO mixes, working sets and hotspot
// fractions.
func randBatchWorkload(rng *rand.Rand) *workload.Workload {
	switch rng.Intn(4) {
	case 0:
		return workload.TPCC()
	case 1:
		return workload.DS2()
	default:
		return workload.CPUIO(workload.CPUIOConfig{
			CPUWeight:       0.2 + rng.Float64()*2,
			IOWeight:        0.2 + rng.Float64()*2,
			LogWeight:       rng.Float64(),
			WorkingSetMB:    256 + rng.Float64()*4000,
			HotspotFraction: 0.5 + rng.Float64()*0.5,
		})
	}
}

// randLoads draws four intervals of offered loads around a per-interval
// base below maxBase; negShare of the ticks are negated (negative loads
// clamp to zero). A final one-tick interval follows: its snapshot depends
// on where the engine's RNG stands after the four, so the dump pins the
// RNG position too.
func randLoads(rng *rand.Rand, ticks int, maxBase, negShare float64) [][]float64 {
	loads := make([][]float64, 0, 5)
	for interval := 0; interval < 4; interval++ {
		offered := make([]float64, ticks)
		base := rng.Float64() * maxBase
		for i := range offered {
			offered[i] = base * (0.5 + rng.Float64())
			if rng.Float64() < negShare {
				offered[i] = -offered[i]
			}
		}
		loads = append(loads, offered)
	}
	return append(loads, []float64{100})
}

// plainTrials are the 40 uncontended trials: workload × container ×
// checkpoint period × noise on/off/0.2 × balloon target × negative loads.
func plainTrials() []kernelTrial {
	metaRng := rand.New(rand.NewSource(20260808))
	trials := make([]kernelTrial, 40)
	for i := range trials {
		seed := metaRng.Int63()
		rng := rand.New(rand.NewSource(seed))
		tr := kernelTrial{w: randBatchWorkload(rng), cont: cat.AtStep(rng.Intn(cat.LadderLen()))}
		tr.opts = Options{
			WarmStart:          rng.Float64() < 0.5,
			CheckpointEverySec: []int{0, 3, 7, 30}[rng.Intn(4)],
			TicksPerInterval:   10 + rng.Intn(80),
		}
		if rng.Float64() < 0.3 {
			tr.opts.NoiseProb = -1 // noise disabled
		} else if rng.Float64() < 0.5 {
			tr.opts.NoiseProb = 0.2 // noisy: exercises the RNG draw order
		}
		tr.seed = rng.Int63()
		if rng.Float64() < 0.3 {
			tr.balloonMB = 64 + rng.Float64()*1024
		}
		tr.loads = randLoads(rand.New(rand.NewSource(seed+1)), tr.opts.TicksPerInterval, 600, 0.05)
		trials[i] = tr
	}
	return trials
}

// contentionTrials are the 25 trials under non-identity multipliers,
// re-installed before every interval as the cluster runner does; some are
// degenerate (≤ 1, lifted to the identity).
func contentionTrials() []kernelTrial {
	metaRng := rand.New(rand.NewSource(20260809))
	trials := make([]kernelTrial, 25)
	for i := range trials {
		seed := metaRng.Int63()
		rng := rand.New(rand.NewSource(seed))
		tr := kernelTrial{w: randBatchWorkload(rng), cont: cat.AtStep(rng.Intn(cat.LadderLen()))}
		tr.opts = Options{
			CheckpointEverySec: []int{0, 7}[rng.Intn(2)],
			TicksPerInterval:   10 + rng.Intn(40),
		}
		if rng.Float64() < 0.5 {
			tr.opts.NoiseProb = 0.2
		}
		tr.seed = rng.Int63()
		loadRng := rand.New(rand.NewSource(seed + 1))
		tr.loads = randLoads(loadRng, tr.opts.TicksPerInterval, 500, 0)
		for range tr.loads {
			tr.mult = append(tr.mult, Contention{
				CPU:    0.5 + loadRng.Float64()*3,
				Memory: 0.5 + loadRng.Float64()*3,
				LogIO:  0.5 + loadRng.Float64()*3,
			})
		}
		trials[i] = tr
	}
	return trials
}

// run drives a fresh engine through the trial, handing each interval's
// loads to feed, and returns one dump line per interval: the
// IntervalLatencies stream, the snapshot, the shed work and the buffer
// pool.
func (tr kernelTrial) run(t *testing.T, feed func(*Engine, []float64)) string {
	t.Helper()
	e, err := New(tr.w, tr.cont, tr.seed, tr.opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.balloonMB > 0 {
		e.SetMemoryTargetMB(tr.balloonMB)
	}
	var b strings.Builder
	for i, loads := range tr.loads {
		if tr.mult != nil {
			e.SetContention(tr.mult[i])
		}
		feed(e, loads)
		dumpExact(&b, reflect.ValueOf(e.IntervalLatencies()))
		dumpExact(&b, reflect.ValueOf(e.EndInterval()))
		cpuMs, ioOps, logKB := e.sheddedCPUms, e.sheddedIOOps, e.sheddedLogKB
		dumpExact(&b, reflect.ValueOf([4]float64{cpuMs, ioOps, logKB, e.usedMB}))
		b.WriteByte('\n')
	}
	return b.String()
}

// The three ways to feed an interval to the engine.
func feedPerTick(e *Engine, loads []float64) {
	for _, off := range loads {
		e.Tick(off)
	}
}

func feedWhole(e *Engine, loads []float64) { e.TickBatch(loads) }

func feedChunks(rng *rand.Rand) func(*Engine, []float64) {
	return func(e *Engine, loads []float64) {
		for lo := 0; lo < len(loads); {
			hi := lo + 1 + rng.Intn(len(loads)-lo)
			e.TickBatch(loads[lo:hi])
			lo = hi
		}
	}
}

func checkKernelGolden(t *testing.T, suite string, dumps []string) {
	t.Helper()
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(dumps, ""))))
	if want := goldenKernel[suite]; got != want {
		t.Errorf("kernel golden %q: hash %s, want %s (the engine's physics drifted)", suite, got, want)
	}
}

// TestKernelGolden is the kernel's bit-identity contract: per-call Tick
// over every trial reproduces the recorded output exactly.
func TestKernelGolden(t *testing.T) {
	for suite, trials := range map[string][]kernelTrial{"plain": plainTrials(), "contention": contentionTrials()} {
		dumps := make([]string, len(trials))
		for i, tr := range trials {
			dumps[i] = tr.run(t, feedPerTick)
		}
		checkKernelGolden(t, suite, dumps)
	}
}

// checkSplitInvariance is the batching property: however an interval is
// split into TickBatch calls — one tick at a time, random chunks, all at
// once — the engine produces the same snapshots, the same latency stream,
// the same internal state and the same RNG position; and that output is
// the golden one.
func checkSplitInvariance(t *testing.T, suite string, trials []kernelTrial) {
	whole := make([]string, len(trials))
	for i, tr := range trials {
		i, tr := i, tr
		whole[i] = tr.run(t, feedWhole)
		t.Run(fmt.Sprintf("trial%02d", i), func(t *testing.T) {
			for name, feed := range map[string]func(*Engine, []float64){
				"per-tick": feedPerTick,
				"chunks":   feedChunks(rand.New(rand.NewSource(tr.seed))),
			} {
				got := strings.Split(tr.run(t, feed), "\n")
				for k, line := range strings.Split(whole[i], "\n") {
					if got[k] != line {
						t.Fatalf("%s: interval %d differs from the whole-interval batch:\n%s\nwant\n%s", name, k, got[k], line)
					}
				}
			}
		})
	}
	checkKernelGolden(t, suite, whole)
}

func TestTickBatchMatchesTick(t *testing.T) {
	checkSplitInvariance(t, "plain", plainTrials())
}

// TestTickBatchMatchesTickUnderContention extends the property to
// non-identity contention multipliers.
func TestTickBatchMatchesTickUnderContention(t *testing.T) {
	checkSplitInvariance(t, "contention", contentionTrials())
}

// TestTickZeroAlloc: the per-call Tick is a one-element TickBatch over a
// stack array; in a warm interval it allocates nothing.
func TestTickZeroAlloc(t *testing.T) {
	e := mustEngine(t, workload.DS2(), cat.AtStep(4), 9)
	for i := 0; i < e.TicksPerInterval(); i++ {
		e.Tick(200)
	}
	e.EndInterval() // the next interval reuses this one's sample array
	if allocs := testing.AllocsPerRun(e.TicksPerInterval()-1, func() { e.Tick(200) }); allocs != 0 {
		t.Fatalf("Tick allocated %.1f times per call, want 0", allocs)
	}
}
