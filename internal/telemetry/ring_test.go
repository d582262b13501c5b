package telemetry

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"daasscale/internal/resource"
)

// randomSnapshot builds a fully-populated snapshot with noisy but finite
// values, including tied and zero columns to stress the selection kernels.
func randomSnapshot(rng *rand.Rand, interval int) Snapshot {
	var s Snapshot
	s.Interval = interval
	s.Container = "C1"
	s.Step = 1
	s.Cost = 2
	for _, k := range resource.Kinds {
		s.Utilization[k] = float64(rng.Intn(20)) / 20 // frequent ties
		s.UtilizationPeak[k] = s.Utilization[k]
	}
	for i := range s.WaitMs {
		if rng.Intn(3) == 0 {
			s.WaitMs[i] = 0 // idle classes
		} else {
			s.WaitMs[i] = rng.Float64() * 50_000
		}
	}
	s.AvgLatencyMs = 20 + rng.Float64()*100
	s.P95LatencyMs = s.AvgLatencyMs * (1.5 + rng.Float64())
	s.Transactions = rng.Float64() * 1e4
	s.OfferedRPS = rng.Float64() * 500
	s.MemoryUsedMB = rng.Float64() * 4096
	s.PhysicalReads = rng.Float64() * 1e5
	s.PhysicalWrites = rng.Float64() * 1e4
	return s
}

// dumpExact writes every field of v in declaration order, floats as exact
// hex, so a hash over the dump changes with any bit of any field. %+v would
// not do: Quality's String method hides its counters.
func dumpExact(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		fmt.Fprintf(w, "%x ", v.Float())
	case reflect.Int:
		fmt.Fprintf(w, "%d ", v.Int())
	case reflect.Bool:
		fmt.Fprintf(w, "%t ", v.Bool())
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

// signalsDigest hashes one decision point after another: the ok flag and,
// when ok, the whole Signals.
type signalsDigest struct{ h hash.Hash }

func newSignalsDigest() signalsDigest { return signalsDigest{sha256.New()} }

func (d signalsDigest) add(sig Signals, ok bool) {
	dumpExact(d.h, reflect.ValueOf(ok))
	if ok {
		dumpExact(d.h, reflect.ValueOf(sig))
	}
}

func (d signalsDigest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// goldenSignalsRandom and goldenSignalsCorrupt pin every Signals the
// streams of TestSignalsMatchReference and TestManagerSanitizesCorruptStream
// produce. They were printed by a run that also asserted each of those
// Signals bit-identical to the sort-based reference implementation (fresh
// slices, copy-and-sort medians, unbuffered Theil–Sen and Spearman), which
// then left the tree; the constants are that oracle's output.
const (
	goldenSignalsRandom  = "75932d71d6bf29c00c0d7868ee2aa64acf06cbcd3e8e070573a300f3985f66e6"
	goldenSignalsCorrupt = "4d302614b26ac67853dc6613aa669c4557e0c092fb365d46ab7c4af565b60ee8"
)

// TestSignalsMatchReference holds the zero-allocation ring-buffer path to
// the reference implementation's recorded output on random windows of
// every length, before and after the ring wraps.
func TestSignalsMatchReference(t *testing.T) {
	d := newSignalsDigest()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		window := MinIntervalsForSignals + rng.Intn(12)
		m := NewManager(window)
		feed := window*2 + rng.Intn(window) // wraps the ring at least once
		for i := 0; i < feed; i++ {
			m.Observe(randomSnapshot(rng, i))
			d.add(m.Signals())
		}
	}
	if got := d.sum(); got != goldenSignalsRandom {
		t.Errorf("Signals over the random streams hash to %s, want %s", got, goldenSignalsRandom)
	}
}

// TestSignalsCachedBetweenObservations: repeat Signals() calls without new
// observations return the identical value, and a new observation
// invalidates the cache.
func TestSignalsCachedBetweenObservations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewManager(6)
	for i := 0; i < 8; i++ {
		m.Observe(randomSnapshot(rng, i))
	}
	first, ok := m.Signals()
	if !ok {
		t.Fatal("no signals")
	}
	again, _ := m.Signals()
	if !reflect.DeepEqual(first, again) {
		t.Fatal("cached Signals differ from the first computation")
	}
	m.Observe(randomSnapshot(rng, 8))
	after, _ := m.Signals()
	if after.Current.Interval != 8 {
		t.Fatalf("cache not invalidated: current interval = %d", after.Current.Interval)
	}
}

// TestRingChronological: after wrapping, the ring holds the newest window
// of snapshots and at(i) walks them oldest first.
func TestRingChronological(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewManager(4)
	for i := 0; i < 11; i++ {
		m.Observe(randomSnapshot(rng, i))
	}
	if len(m.ring) != 4 {
		t.Fatalf("len = %d, want 4", len(m.ring))
	}
	for i := range m.ring {
		if want := 7 + i; m.at(i).Interval != want {
			t.Errorf("at(%d).Interval = %d, want %d", i, m.at(i).Interval, want)
		}
	}
}

// TestSignalsZeroAllocAfterWarmup is the allocation gate of the PR's
// acceptance criteria: at window 10, a warmed manager's
// Observe+Signals cycle must not touch the heap. Run by `make verify`
// (skipped under -race, whose instrumentation perturbs the counts).
func TestSignalsZeroAllocAfterWarmup(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(77))
	m := NewManager(10)
	snaps := make([]Snapshot, 10*2)
	for i := range snaps {
		snaps[i] = randomSnapshot(rng, i)
	}
	for _, s := range snaps {
		m.Observe(s)
	}
	if _, ok := m.Signals(); !ok { // warm the arenas
		t.Fatal("no signals after warm-up")
	}
	next := 0
	allocs := testing.AllocsPerRun(200, func() {
		m.Observe(snaps[next%len(snaps)])
		next++
		if _, ok := m.Signals(); !ok {
			t.Fatal("signals unavailable")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Manager.Signals allocated %v times per run, want 0", allocs)
	}
}
