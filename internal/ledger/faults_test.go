package ledger

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"daasscale/internal/diskfaults"
	"daasscale/internal/fsio"
	"daasscale/internal/loop"
)

func memLedger(t *testing.T) (*diskfaults.MemFS, string) {
	t.Helper()
	m := diskfaults.NewMemFS()
	if err := m.MkdirAll("/led", 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	return m, "/led/t.ledger"
}

// TestWriterPoisonedAfterFailedSync is the regression test for the sticky
// failure: before it, a caller that ignored a Sync error could keep
// appending after a partial write, burying a torn frame mid-file where
// recovery cannot truncate it.
func TestWriterPoisonedAfterFailedSync(t *testing.T) {
	m, path := memLedger(t)
	ffs := diskfaults.Wrap(m, Plan0())
	w, err := OpenWriterFS(ffs, path)
	if err != nil {
		t.Fatalf("OpenWriterFS: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	rec := randRecord(rng)
	if err := w.AppendDecision(rec); err != nil {
		t.Fatalf("clean append: %v", err)
	}
	// Fail the next sync (the append's own group commit). The window spans
	// the flush's write op too; the mask makes only the fsync fault.
	ffs.SetPlan(diskfaults.Plan{Kind: diskfaults.KindEIO, Start: ffs.Ops(), Count: 2, Mask: diskfaults.MaskOf(diskfaults.OpSync)})
	err = w.AppendDecision(rec)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("faulted append error = %v, want EIO", err)
	}
	if w.Failed() == nil {
		t.Fatal("writer not poisoned after failed sync")
	}
	// Disk is healthy again, but the writer must still refuse: the segment
	// tail state is unknown.
	for i := 0; i < 3; i++ {
		err := w.AppendDecision(rec)
		if !errors.Is(err, ErrWriterFailed) {
			t.Fatalf("append %d after poison: err = %v, want ErrWriterFailed", i, err)
		}
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("append %d after poison lost the root cause: %v", i, err)
		}
	}
	if err := w.Sync(); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("sync after poison: err = %v, want ErrWriterFailed", err)
	}
	if err := w.Close(); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("close of poisoned writer: err = %v, want ErrWriterFailed", err)
	}
}

// TestAppendAfterClose: a closed writer refuses appends with an error
// wrapping os.ErrClosed and latches it, whatever the filesystem does with
// a closed handle, and the ledger keeps exactly what was synced.
func TestAppendAfterClose(t *testing.T) {
	m, memPath := memLedger(t)
	for _, c := range []struct {
		name string
		fsys fsio.FS
		path string
	}{
		{"os", fsio.OS, filepath.Join(t.TempDir(), "t.ledger")},
		{"memfs", m, memPath},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, err := OpenWriterFS(c.fsys, c.path, WithSyncEvery(0))
			if err != nil {
				t.Fatal(err)
			}
			rec := randRecord(rand.New(rand.NewSource(11)))
			if err := w.AppendDecision(rec); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.AppendDecision(rec); !errors.Is(err, os.ErrClosed) {
				t.Fatalf("append after Close: err = %v, want os.ErrClosed", err)
			}
			if !errors.Is(w.Failed(), os.ErrClosed) {
				t.Fatalf("append after Close latched %v, want os.ErrClosed", w.Failed())
			}
			if err := w.AppendLineItem(LineItemFor(rec)); !errors.Is(err, ErrWriterFailed) || !errors.Is(err, os.ErrClosed) {
				t.Fatalf("second append after Close: err = %v, want ErrWriterFailed wrapping os.ErrClosed", err)
			}
			log, err := ReplayFS(c.fsys, c.path)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(log.Entries); n != 1 || log.Truncated {
				t.Fatalf("ledger after appends past Close: %d records (truncated %v), want the 1 synced", n, log.Truncated)
			}
		})
	}
}

// TestWriteThroughBound: a writer whose caller never syncs writes its
// pending frames out once they pass writeThrough, without an fsync.
func TestWriteThroughBound(t *testing.T) {
	m, path := memLedger(t)
	w, err := OpenWriterFS(m, path, WithSyncEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for w.Bytes() < headerLen+writeThrough {
		if err := w.AppendDecision(randRecord(rng)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := m.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != w.Bytes() || w.buf != nil || w.Syncs() != 0 {
		t.Fatalf("past the bound: %d bytes in the file of %d appended, buffer held %v, %d syncs; want all written, none held, no sync",
			len(data), w.Bytes(), w.buf != nil, w.Syncs())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// Plan0 returns an empty plan (no faults); named so tests read clearly.
func Plan0() diskfaults.Plan { return diskfaults.Plan{} }

// TestWriterPoisonedAfterFailedAppend fails the write path itself (via a
// short write at flush time) and checks the same stickiness.
func TestWriterPoisonedAfterFailedAppend(t *testing.T) {
	m, path := memLedger(t)
	ffs := diskfaults.Wrap(m, Plan0())
	w, err := OpenWriterFS(ffs, path)
	if err != nil {
		t.Fatalf("OpenWriterFS: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	rec := randRecord(rng)
	ffs.SetPlan(diskfaults.Plan{Kind: diskfaults.KindShortWrite, Start: ffs.Ops(), Count: 1, Mask: diskfaults.MaskOf(diskfaults.OpWrite)})
	if err := w.AppendDecision(rec); err == nil {
		t.Fatal("faulted append returned nil")
	}
	if w.Failed() == nil {
		t.Fatal("writer not poisoned after failed append")
	}
	ffs.SetPlan(Plan0())
	if err := w.AppendDecision(rec); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("append after poison: err = %v, want ErrWriterFailed", err)
	}
	// The torn half-frame the short write left must be recoverable: reopen
	// truncates it, and replay sees only the intact prefix (here: nothing).
	w.Close()
	w2, err := OpenWriterFS(ffs, path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if w2.Records() != 0 {
		t.Fatalf("reopen found %d records in a torn segment, want 0", w2.Records())
	}
	if w2.recovered == 0 {
		t.Fatal("reopen did not truncate the torn tail")
	}
	w2.Close()
}

// TestRotateSealsAndRecovers drives the full degraded-mode cycle: append,
// poison, rotate, append again, and replay across the seal boundary.
func TestRotateSealsAndRecovers(t *testing.T) {
	m, path := memLedger(t)
	ffs := diskfaults.Wrap(m, Plan0())
	w, err := OpenWriterFS(ffs, path)
	if err != nil {
		t.Fatalf("OpenWriterFS: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	var want []loop.DecisionRecord
	appendOne := func() {
		t.Helper()
		rec := randRecord(rng)
		if err := w.AppendDecision(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := w.AppendLineItem(LineItemFor(rec)); err != nil {
			t.Fatalf("append item: %v", err)
		}
		want = append(want, rec)
	}
	appendOne()
	appendOne()

	// Poison, then heal the disk and rotate.
	ffs.SetPlan(diskfaults.Plan{Kind: diskfaults.KindEIO, Start: ffs.Ops(), Count: 1})
	rec := randRecord(rng)
	if err := w.AppendDecision(rec); err == nil {
		t.Fatal("faulted append returned nil")
	}
	ffs.SetPlan(Plan0())
	if err := w.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if w.Failed() != nil {
		t.Fatalf("poison survived rotation: %v", w.Failed())
	}
	if w.Seals() != 1 {
		t.Fatalf("Seals = %d, want 1", w.Seals())
	}
	appendOne()

	log, err := ReplayFS(ffs, path)
	if err != nil {
		t.Fatalf("ReplayFS: %v", err)
	}
	if log.Segments != 2 {
		t.Fatalf("Segments = %d, want 2", log.Segments)
	}
	decs := log.Decisions()
	if len(decs) != len(want) {
		t.Fatalf("replayed %d decisions, want %d", len(decs), len(want))
	}
	for i := range want {
		if !recordsEqual(decs[i], want[i]) {
			t.Fatalf("decision %d differs after rotation", i)
		}
	}
	if items := log.Items(); len(items) != len(want) {
		t.Fatalf("replayed %d line items, want %d", len(items), len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRotateRetryAfterPartialRotation fails the rotation midway (after the
// rename) and checks a retry resumes instead of erroring or double-sealing.
func TestRotateRetryAfterPartialRotation(t *testing.T) {
	m, path := memLedger(t)
	ffs := diskfaults.Wrap(m, Plan0())
	w, err := OpenWriterFS(ffs, path)
	if err != nil {
		t.Fatalf("OpenWriterFS: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	if err := w.AppendDecision(randRecord(rng)); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Fail the create of the fresh segment: the rename has happened.
	ffs.SetPlan(diskfaults.Plan{Kind: diskfaults.KindEIO, Start: 0, Count: -1, Mask: diskfaults.MaskOf(diskfaults.OpCreate)})
	if err := w.Rotate(); err == nil {
		t.Fatal("rotate with faulted create returned nil")
	}
	if w.Failed() == nil {
		t.Fatal("failed rotation left writer unpoisoned")
	}
	ffs.SetPlan(Plan0())
	if err := w.Rotate(); err != nil {
		t.Fatalf("rotate retry: %v", err)
	}
	log, err := ReplayFS(ffs, path)
	if err != nil {
		t.Fatalf("ReplayFS: %v", err)
	}
	if log.Segments != 2 || len(log.Decisions()) != 1 {
		t.Fatalf("after retried rotation: %d segments, %d decisions; want 2, 1", log.Segments, len(log.Decisions()))
	}
	w.Close()
}

// TestOpenWriterRecoversTornHeader covers a power cut during segment
// creation: a file holding only a prefix of the header is rewritten, while
// a same-length foreign file is refused.
func TestOpenWriterRecoversTornHeader(t *testing.T) {
	m, path := memLedger(t)
	hdr := []byte{0x44, 0x4C, 0x47, 0x31, byte(Version), 0} // "DLG1" + torn version
	writeRaw(t, m, path, hdr)
	w, err := OpenWriterFS(m, path)
	if err != nil {
		t.Fatalf("open over torn header: %v", err)
	}
	if w.recovered != int64(len(hdr)) {
		t.Fatalf("recovered = %d, want %d", w.recovered, len(hdr))
	}
	rng := rand.New(rand.NewSource(5))
	if err := w.AppendDecision(randRecord(rng)); err != nil {
		t.Fatalf("append after header recovery: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := ReplayFS(m, path); err != nil {
		t.Fatalf("replay after header recovery: %v", err)
	}

	writeRaw(t, m, "/led/foreign", []byte("JUNK!"))
	if _, err := OpenWriterFS(m, "/led/foreign"); err == nil {
		t.Fatal("short foreign file was clobbered")
	}
}

func writeRaw(t *testing.T, m *diskfaults.MemFS, path string, data []byte) {
	t.Helper()
	f, err := m.OpenFile(path, 0x40|0x2, 0o644) // O_CREATE|O_RDWR
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	f.Close()
}

// streamBytes re-encodes the log's entries into the byte stream the live
// writer framed, payloads only, in append order. Because the encoding is
// deterministic this reproduces the originally-written payload bytes
// exactly, so "replay is a prefix of the live stream" can be checked as
// plain byte comparison even across segment rotations.
func streamBytes(l *Log) []byte {
	var out []byte
	for _, e := range l.Entries {
		switch {
		case e.Decision != nil:
			out = append(out, EncodeDecision(nil, e.Decision)...)
		case e.Item != nil:
			out = append(out, EncodeLineItem(nil, e.Item)...)
		}
	}
	return out
}

// TestStreamBytesPrefixAcrossRotation pins the checker's core invariant:
// the replayed stream is byte-identical to the concatenation of what the
// live writer encoded, across a rotation.
func TestStreamBytesPrefixAcrossRotation(t *testing.T) {
	m, path := memLedger(t)
	w, err := OpenWriterFS(m, path)
	if err != nil {
		t.Fatalf("OpenWriterFS: %v", err)
	}
	rng := rand.New(rand.NewSource(6))
	var live []byte
	for i := 0; i < 10; i++ {
		rec := randRecord(rng)
		it := LineItemFor(rec)
		if err := w.AppendDecision(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := w.AppendLineItem(it); err != nil {
			t.Fatalf("append item: %v", err)
		}
		live = append(live, EncodeDecision(nil, &rec)...)
		live = append(live, EncodeLineItem(nil, &it)...)
		if i == 4 {
			if err := w.Rotate(); err != nil {
				t.Fatalf("Rotate: %v", err)
			}
		}
	}
	w.Close()
	log, err := ReplayFS(m, path)
	if err != nil {
		t.Fatalf("ReplayFS: %v", err)
	}
	if !bytes.Equal(streamBytes(log), live) {
		t.Fatal("replayed stream differs from live stream across rotation")
	}
}
