package ledger

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"daasscale/internal/diskfaults"
	"daasscale/internal/fsio"
	"daasscale/internal/loop"
)

// rawFrame frames payload under kind with a valid checksum.
func rawFrame(kind byte, payload []byte) []byte {
	b := append([]byte{kind, 0, 0, 0, 0}, payload...)
	binary.LittleEndian.PutUint32(b[1:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

func readRaw(t *testing.T, m *diskfaults.MemFS, path string) []byte {
	t.Helper()
	b, err := m.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", path, err)
	}
	return b
}

func replaceRaw(t *testing.T, m *diskfaults.MemFS, path string, data []byte) {
	t.Helper()
	if err := m.Remove(path); err != nil {
		t.Fatalf("Remove(%s): %v", path, err)
	}
	writeRaw(t, m, path, data)
}

// TestOpenSinglePassProperty is the equivalence property of the one-pass
// open. A random record stream D I D I … is split over 0–3 sealed segments
// and an active one at arbitrary frame boundaries (so a seal may end on an
// unbilled decision), and the active segment is left the ways a crash can
// leave it: clean, cut mid-frame, cut between a decision and its line
// item, followed by garbage, a torn header, or absent after a half-done
// rotation. What the two-pass open (scan + truncate, then list + replay)
// returned for such a ledger is known from how it was built: the writer
// resumes after the last intact frame of the active segment, the file is
// cut there, and the tail is the last intact frame of the whole stream.
// Open must return exactly that, and list + replay of the recovered
// ledger must agree with it.
func TestOpenSinglePassProperty(t *testing.T) {
	const (
		clean = iota
		cutMidFrame
		cutUnbilled
		garbageTail
		tornHeader
		absentActive
		shapes
	)
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, path := memLedger(t)
		w, err := OpenWriterFS(m, path, WithSyncEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		var recs []loop.DecisionRecord
		frames := 0 // appended so far, over all segments
		appendFrame := func() {
			if frames%2 == 0 {
				recs = append(recs, randRecord(rng))
				err = w.AppendDecision(recs[len(recs)-1])
			} else {
				err = w.AppendLineItem(LineItemFor(recs[len(recs)-1]))
			}
			if err != nil {
				t.Fatalf("seed %d: append: %v", seed, err)
			}
			frames++
		}
		rotations := rng.Intn(4)
		for s := 0; s < rotations; s++ {
			for n := rng.Intn(6); n > 0; n-- {
				appendFrame()
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := w.Rotate(); err != nil {
				t.Fatalf("seed %d: rotate: %v", seed, err)
			}
		}
		sealed := frames
		ends := []int64{headerLen} // ends[k]: offset past the active segment's k-th frame
		for n := rng.Intn(6); n > 0; n-- {
			appendFrame()
			ends = append(ends, w.Bytes())
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		whole := readRaw(t, m, path)

		shape := rng.Intn(shapes)
		intact := len(ends) - 1 // frames of the active segment that survive
		image := whole          // the active file as the crash leaves it
		var recovered int64
		switch shape {
		case cutMidFrame:
			if intact == 0 {
				break
			}
			intact = rng.Intn(intact)
			cut := ends[intact] + 1 + rng.Int63n(ends[intact+1]-ends[intact]-1)
			image, recovered = whole[:cut], cut-ends[intact]
		case cutUnbilled:
			// Keep an odd number of stream frames: the last one is a decision.
			for intact > 0 && (sealed+intact)%2 == 0 {
				intact--
			}
			image = whole[:ends[intact]]
		case garbageTail:
			junk := make([]byte, 1+rng.Intn(40))
			rng.Read(junk)
			image, recovered = append(append([]byte(nil), whole...), junk...), int64(len(junk))
		case tornHeader:
			intact = 0
			image = headerBytes()[:1+rng.Intn(headerLen-1)]
			recovered = int64(len(image))
		case absentActive:
			if rotations == 0 {
				break
			}
			intact = 0
			image = nil
		}
		if image == nil {
			if err := m.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else {
			replaceRaw(t, m, path, image)
		}
		wantImage := whole[:ends[intact]]
		if shape == tornHeader || image == nil {
			wantImage = headerBytes()
		}
		stream := sealed + intact // intact frames of the whole ledger

		idx, err := ListDir(m, filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		seals := idx[filepath.Base(path)]
		if len(seals) != rotations {
			t.Fatalf("seed %d: index holds %d seals, want %d", seed, len(seals), rotations)
		}
		got, tail, err := Open(m, path, seals, WithSyncEvery(0))
		if err != nil {
			t.Fatalf("seed %d shape %d: Open: %v", seed, shape, err)
		}
		where := fmt.Sprintf("seed %d shape %d (%d seals, %d+%d frames)", seed, shape, rotations, sealed, intact)
		if got.Records() != int64(intact) || got.Bytes() != int64(len(wantImage)) || got.recovered != recovered {
			t.Fatalf("%s: Records/Bytes/recovered = %d/%d/%d, want %d/%d/%d", where,
				got.Records(), got.Bytes(), got.recovered, intact, len(wantImage), recovered)
		}
		if after := readRaw(t, m, path); !bytes.Equal(after, wantImage) {
			t.Fatalf("%s: active segment is %d bytes after open, want the %d-byte intact prefix", where, len(after), len(wantImage))
		}
		checkTail := func(what string, tl Tail) {
			t.Helper()
			if tl.Unbilled != (stream%2 == 1) {
				t.Fatalf("%s: %s: Unbilled = %v with %d intact frames", where, what, tl.Unbilled, stream)
			}
			if stream == 0 {
				if tl.Last != nil {
					t.Fatalf("%s: %s: a last decision in an empty ledger", where, what)
				}
			} else if tl.Last == nil || !recordsEqual(*tl.Last, recs[(stream-1)/2]) {
				t.Fatalf("%s: %s: last decision is not record %d", where, what, (stream-1)/2)
			}
		}
		checkTail("Open", tail)
		for what, replay := range map[string]func() (*Log, error){
			"ReplayFS":      func() (*Log, error) { return ReplayFS(m, path) },
			"Writer.Replay": got.Replay,
		} {
			log, err := replay()
			if err != nil {
				t.Fatalf("%s: %s: %v", where, what, err)
			}
			if len(log.Entries) != stream || log.Segments != rotations+1 {
				t.Fatalf("%s: %s: %d entries in %d segments, want %d in %d", where, what, len(log.Entries), log.Segments, stream, rotations+1)
			}
			checkTail(what, log.Tail())
		}

		// The writer resumes and rotates from what it was handed, without
		// listing: the next seal continues the sequence.
		if err := got.AppendDecision(randRecord(rng)); err != nil {
			t.Fatalf("%s: append after open: %v", where, err)
		}
		if err := got.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := got.Rotate(); err != nil {
			t.Fatalf("%s: rotate after open: %v", where, err)
		}
		next := fmt.Sprintf("%s%s%06d", path, sealSuffix, rotations+1)
		if log, err := got.Replay(); err != nil || len(log.Entries) != stream+1 || log.Segments != rotations+2 {
			t.Fatalf("%s: after one more rotation: %v, %+v", where, err, log)
		}
		if _, err := m.ReadFile(next); err != nil {
			t.Fatalf("%s: the next seal is not %s: %v", where, next, err)
		}
		got.Close()
	}
}

// TestOpenRefusesUndecodableFrames: a frame whose checksum holds but whose
// kind is unknown or whose payload does not decode is refused at open —
// in the active segment and in a sealed one — and nothing is truncated.
func TestOpenRefusesUndecodableFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rec := randRecord(rng)
	good := append(rawFrame(KindDecision, EncodeDecision(nil, &rec)), rawFrame(KindLineItem, EncodeLineItem(nil, &LineItem{Tenant: "t"}))...)
	for name, bad := range map[string][]byte{
		"unknown kind":         rawFrame(9, []byte("from the future")),
		"undecodable decision": rawFrame(KindDecision, []byte("x")),
		"undecodable item":     rawFrame(KindLineItem, []byte("x")),
	} {
		for _, inSeal := range []bool{false, true} {
			m, path := memLedger(t)
			damaged := append(append(append(headerBytes(), good...), bad...), good...)
			target := path
			var seals []string
			if inSeal {
				target = path + sealSuffix + "000001"
				seals = []string{target}
				writeRaw(t, m, path, append(headerBytes(), good...))
			}
			writeRaw(t, m, target, damaged)
			if _, _, err := Open(m, path, seals); err == nil {
				t.Fatalf("%s (sealed=%v): Open accepted it", name, inSeal)
			}
			if _, err := OpenWriterFS(m, path); err == nil {
				t.Fatalf("%s (sealed=%v): OpenWriterFS accepted it", name, inSeal)
			}
			if _, err := ReplayFS(m, path); err == nil {
				t.Fatalf("%s (sealed=%v): ReplayFS accepted it", name, inSeal)
			}
			if after := readRaw(t, m, target); !bytes.Equal(after, damaged) {
				t.Fatalf("%s (sealed=%v): the refused segment was modified", name, inSeal)
			}
		}
	}
}

// TestListDir: one listing indexes every ledger of a directory, seals in
// numeric rotation order, foreign names as ledgers of their own.
func TestListDir(t *testing.T) {
	m, _ := memLedger(t)
	for _, name := range []string{
		"a.ledger", "a.ledger.seal-000002", "a.ledger.seal-000010", "a.ledger.seal-1000000", "a.ledger.seal-000001",
		"b.ledger.seal-000001", // active absent
		"c.ledger",
		"c.ledger.seal-0", "c.ledger.seal-x", // not seals: ledgers by that name
		"d.seal-000001.ledger", // a tenant id may contain the suffix
	} {
		writeRaw(t, m, "/led/"+name, headerBytes())
	}
	idx, err := ListDir(m, "/led")
	if err != nil {
		t.Fatal(err)
	}
	want := Index{
		"a.ledger":             {"/led/a.ledger.seal-000001", "/led/a.ledger.seal-000002", "/led/a.ledger.seal-000010", "/led/a.ledger.seal-1000000"},
		"b.ledger":             {"/led/b.ledger.seal-000001"},
		"c.ledger":             nil,
		"c.ledger.seal-0":      nil,
		"c.ledger.seal-x":      nil,
		"d.seal-000001.ledger": nil,
	}
	if len(idx) != len(want) {
		t.Fatalf("index has %d ledgers, want %d: %v", len(idx), len(want), idx)
	}
	for k, seals := range want {
		got, ok := idx[k]
		if !ok || fmt.Sprint(got) != fmt.Sprint(seals) {
			t.Fatalf("index[%q] = %v (present %v), want %v", k, got, ok, seals)
		}
	}
	if _, err := ListDir(m, "/nowhere"); err == nil {
		t.Fatal("listing a missing directory returned nil")
	}
}

// TestSyncSkipsCleanWriter: Sync with nothing appended since the last one
// issues no fsync, and still refuses on a poisoned writer.
func TestSyncSkipsCleanWriter(t *testing.T) {
	m, path := memLedger(t)
	ffs := diskfaults.Wrap(m, Plan0())
	w, err := OpenWriterFS(ffs, path, WithSyncEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	for i, pending := range []bool{false, true, false, false, true} {
		if pending {
			if err := w.AppendDecision(randRecord(rng)); err != nil {
				t.Fatal(err)
			}
		}
		before, ops := w.Syncs(), ffs.Ops()
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if pending != (w.Syncs() == before+1) || pending != (ffs.Ops() > ops) {
			t.Fatalf("step %d (pending=%v): Syncs %d→%d, filesystem ops %d→%d", i, pending, before, w.Syncs(), ops, ffs.Ops())
		}
	}
	ffs.SetPlan(diskfaults.Plan{Kind: diskfaults.KindEIO, Start: ffs.Ops(), Count: -1})
	if err := w.AppendDecision(randRecord(rng)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err == nil {
		t.Fatal("faulted sync returned nil")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("a poisoned writer's Sync returned nil")
	}
}

// TestOpenAllocs pins what recovery costs the heap. Open validates every
// frame without building a record for it and reads the active segment
// into a recycled buffer, so a 300-decision, 300-line-item ledger opens in
// a bounded handful of allocations — the writer and its file handle and
// buffer, the last decision — not a record per frame (2,638 when every
// frame was decoded).
func TestOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	path := filepath.Join(t.TempDir(), "t.ledger")
	w, err := OpenWriterFS(fsio.OS, path, WithSyncEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 300; i++ {
		r := randRecord(rng)
		if err := w.AppendDecision(r); err != nil {
			t.Fatal(err)
		}
		if err := w.AppendLineItem(LineItemFor(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		w, tail, err := Open(fsio.OS, path, nil)
		if err != nil || w.Records() != 600 || tail.Last == nil || tail.Unbilled {
			t.Fatalf("Open: %v, %d records, tail %+v", err, w.Records(), tail)
		}
		w.Close()
	})
	t.Logf("Open of a 600-frame ledger: %.0f allocations", got)
	if got > 32 {
		t.Fatalf("Open of a 600-frame ledger: %.0f allocations, want at most 32", got)
	}
}

// TestOpenTailOwnsItsRecord: the active segment is read into a recycled
// buffer, and the Tail Open returns must not point into it — opening a
// second ledger right after leaves the first tail's record intact.
func TestOpenTailOwnsItsRecord(t *testing.T) {
	m, _ := memLedger(t)
	rng := rand.New(rand.NewSource(43))
	var recs []loop.DecisionRecord
	for i, path := range []string{"/led/a.ledger", "/led/b.ledger"} {
		r := randRecord(rng)
		r.Tenant, r.Snapshot.Container = fmt.Sprintf("tenant-%d", i), fmt.Sprintf("B%d", i)
		r.Explanations = []string{fmt.Sprintf("explanation %d", i)}
		recs = append(recs, r)
		w, err := OpenWriterFS(m, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendDecision(r); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var tails []Tail
	for _, path := range []string{"/led/a.ledger", "/led/b.ledger"} {
		w, tail, err := Open(m, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		tails = append(tails, tail)
	}
	for i, tail := range tails {
		if tail.Last == nil || !recordsEqual(*tail.Last, recs[i]) || !reflect.DeepEqual(tail.Last.Explanations, recs[i].Explanations) {
			t.Fatalf("tail %d is not the record it opened on: %+v", i, tail.Last)
		}
	}
}
