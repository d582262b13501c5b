// Package ledger is the billing-grade decision log behind the serving
// daemon: an append-only, fsync'd, checksummed file of every
// loop.DecisionRecord and billing line-item a tenant's control loop emits.
// The design goal is the metering discipline of a production DBaaS —
// "make billing boring, deterministic, and explainable" — which reduces
// to three properties:
//
//   - Append-only with per-record checksums: a record, once synced, is
//     immutable, and any torn or bit-rotted tail is detected rather than
//     parsed.
//   - Deterministic encoding: the same record always produces the same
//     bytes (integers little-endian, floats as exact IEEE bits), so a
//     month of decisions and charges is byte-reproducibly re-derivable
//     from the log alone — Replay over a recorded run equals the live
//     Collector's records exactly.
//   - Crash recovery to the last good record: OpenWriter scans an
//     existing file, truncates an incomplete or checksum-failing tail
//     (the bytes a crash mid-append could leave), and resumes appending
//     after the last intact record.
//
// Storage faults are first-class: the Writer is sticky-failed (poisoned)
// after any write or sync error — once a frame may be torn mid-file,
// further appends would bury it where recovery cannot truncate, so they
// are refused until Rotate seals the damaged segment away and starts a
// fresh one. A rotated ledger is a sequence of segments
// ("<path>.seal-000001", ... plus the active "<path>"), and Replay
// concatenates their intact records in order.
//
// File layout (every segment):
//
//	header : magic "DLG1" (u32 LE) | version (u32 LE)
//	frame  : kind (u8) | payloadLen (u32 LE) | payload | crc32c (u32 LE)
//
// The CRC is Castagnoli over kind|payloadLen|payload, so a frame whose
// length field itself was torn fails the checksum instead of mis-framing
// the rest of the file.
package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"daasscale/internal/fsio"
	"daasscale/internal/loop"
)

const (
	// Magic identifies a ledger file ("DLG1" little-endian).
	Magic = uint32(0x31474C44)
	// Version is the current format version. Version 2 appended the
	// contention stamp (node index, channel pressures, wait inflation) to
	// every decision record; version-1 ledgers fail loudly on open rather
	// than mis-framing.
	Version = uint32(2)
	// headerLen is the byte length of the file header.
	headerLen = 8
	// frameOverhead is the per-record framing cost: kind, length, CRC.
	frameOverhead = 1 + 4 + 4
	// maxPayload bounds a single record payload; a length field beyond it
	// is treated as corruption rather than an allocation request.
	maxPayload = 1 << 24
	// writeThrough bounds the pending frames: past it an append writes
	// them out unsynced, so a caller that rarely syncs holds no more.
	writeThrough = 1 << 20
	// sealSuffix separates a sealed segment's sequence number from the
	// active ledger path it was rotated out of.
	sealSuffix = ".seal-"
)

// Record kinds.
const (
	// KindDecision frames an encoded loop.DecisionRecord.
	KindDecision = byte(1)
	// KindLineItem frames an encoded billing LineItem.
	KindLineItem = byte(2)
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrWriterFailed marks a poisoned Writer: a previous append or sync
// failed, the tail of the active segment may be torn, and further appends
// are refused until Rotate starts a fresh segment. errors.Is(err,
// ErrWriterFailed) distinguishes "refusing because already broken" from a
// fresh storage error; errors.As/Is on the same error still reach the
// root cause (EIO, ENOSPC, ...).
var ErrWriterFailed = errors.New("ledger: writer failed; segment must be rotated")

// LineItem is one interval's charge on a tenant's bill: which container
// the tenant ran in and what it cost. Line items are derived from
// decision records at append time, so the bill and the decision trail can
// never disagree about an interval.
type LineItem struct {
	// Tenant is the billed tenant.
	Tenant string `json:"tenant"`
	// Interval is the billing interval charged.
	Interval int `json:"interval"`
	// Container is the SKU the tenant ran in during the interval.
	Container string `json:"container"`
	// Cost is the charge, in the catalog's abstract cost units.
	Cost float64 `json:"cost"`
}

// LineItemFor derives the billing line-item of one decision record: the
// interval is billed at the snapshot's container and cost (for withheld
// serving intervals the server synthesizes a snapshot carrying the
// running container's list price, so gaps still bill).
func LineItemFor(r loop.DecisionRecord) LineItem {
	return LineItem{
		Tenant:    r.Tenant,
		Interval:  r.Interval,
		Container: r.Snapshot.Container,
		Cost:      r.Snapshot.Cost,
	}
}

// WriterOption configures OpenWriter.
type WriterOption func(*Writer)

// WithSyncEvery sets the group-commit stride: the writer fsyncs after
// every n appended records. 1 (the default) syncs every record — strict
// durability; larger strides amortize the fsync over a batch at the cost
// of the unsynced tail on power loss (the tail is detected and truncated
// on reopen, never misread). n ≤ 0 disables count-driven syncs entirely:
// the caller owns Sync, typically once per ingest request.
func WithSyncEvery(n int) WriterOption {
	return func(w *Writer) { w.syncEvery = n }
}

// Writer appends checksummed records to the active segment of a ledger.
// It is not goroutine-safe; the serving daemon gives each tenant its own
// ledger and serializes appends under the tenant's lock.
//
// Failure is sticky: after any append or sync error the Writer is
// poisoned — every further Append/Sync returns an error wrapping both
// ErrWriterFailed and the original cause, and nothing more is written to
// the possibly-torn segment. Rotate seals the damaged segment and opens a
// fresh one, clearing the poison; Failed reports the latched cause.
type Writer struct {
	fsys fsio.FS
	f    fsio.File
	// buf holds the frames appended since the last write; nil after it.
	buf       *[]byte
	path      string
	syncEvery int
	pending   int
	failed    error
	// sealed is the ledger's sealed segments in rotation order: the seal
	// index at open, appended to by Rotate, so neither replay nor the next
	// rotation lists the directory.
	sealed []string

	records   int64
	bytes     int64
	recovered int64
	syncs     int64
	seals     int64
}

// OpenWriter opens (or creates) the ledger at path on the real
// filesystem. See OpenWriterFS.
func OpenWriter(path string, opts ...WriterOption) (*Writer, error) {
	return OpenWriterFS(fsio.OS, path, opts...)
}

// OpenWriterFS lists path's directory for its sealed segments and opens
// the ledger with Open — the entry point for tools and tests that hold no
// Index.
func OpenWriterFS(fsys fsio.FS, path string, opts ...WriterOption) (*Writer, error) {
	seals, err := sealsOf(fsys, path)
	if err != nil {
		return nil, err
	}
	w, _, err := Open(fsys, path, seals, opts...)
	return w, err
}

// Open opens (or creates) the ledger at path for appending, in one pass
// over its bytes: seals (its sealed segments in rotation order, from
// ListDir) and then the active segment are each read once, and every
// frame is CRC-checked, kind-checked and validated exactly as a replay
// would decode it, but only each segment's last decision is decoded. The
// returned Tail is the end of the record stream — what a resuming caller
// needs instead of a second replay. In the active segment a torn tail —
// an incomplete frame or a checksum mismatch, as left by a crash
// mid-append — is truncated away so appending resumes after the last
// intact record, and a torn prefix of the header itself (a power cut
// during creation) is rewritten. A file that is not a ledger (bad magic
// or version) or holds an undecodable record is an error, never
// overwritten. Seals are only read.
func Open(fsys fsio.FS, path string, seals []string, opts ...WriterOption) (*Writer, Tail, error) {
	// seals is copied: Rotate appends, and the caller's index keeps its own.
	w := &Writer{fsys: fsys, path: path, syncEvery: 1, sealed: append([]string(nil), seals...)}
	for _, o := range opts {
		o(w)
	}
	var tail Tail
	for _, seg := range seals {
		data, err := fsys.ReadFile(seg)
		if err != nil {
			return nil, Tail{}, fmt.Errorf("ledger: %w", err)
		}
		if _, _, err := scanTail(seg, data, &tail); err != nil {
			return nil, Tail{}, err
		}
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Tail{}, fmt.Errorf("ledger: %w", err)
	}
	if err := w.recoverActive(f, &tail); err != nil {
		f.Close()
		return nil, Tail{}, err
	}
	w.f = f
	return w, tail, nil
}

// bufs recycles byte buffers (a *[]byte, always of length 0) across
// writers: recoverActive's read buffer, which is only scanned, and the
// pending frames, which are written out before the buffer goes back.
// Nothing retained points into either.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// recoverActive reads the active segment through its append handle (one
// sized read), repairs what a crash can leave, and positions f for
// appending.
func (w *Writer) recoverActive(f fsio.File, tail *Tail) error {
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	buf := bufs.Get().(*[]byte)
	if int64(cap(*buf)) < st.Size() {
		*buf = make([]byte, 0, st.Size())
	}
	defer bufs.Put(buf)
	data := (*buf)[:st.Size()]
	if _, err := io.ReadFull(f, data); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if len(data) > 0 && len(data) < headerLen {
		// A crash during segment creation can leave a prefix of the header.
		// Only a byte-prefix of the canonical header is recovered this way —
		// anything else is a foreign file we refuse to clobber.
		if !bytes.HasPrefix(headerBytes(), data) {
			return fmt.Errorf("ledger: %s: not a ledger file (torn non-ledger prefix)", w.path)
		}
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		w.recovered = int64(len(data))
		data = nil
	}
	if len(data) == 0 {
		w.bytes = headerLen
		return writeHeader(w.fsys, f, w.path)
	}
	good, records, err := scanTail(w.path, data, tail)
	if err != nil {
		return err
	}
	if good < int64(len(data)) {
		// Crash recovery: drop the torn tail and persist the cut so a
		// second crash cannot resurrect it.
		w.recovered = int64(len(data)) - good
		if err := f.Truncate(good); err != nil {
			return fmt.Errorf("ledger: truncating torn tail of %s: %w", w.path, err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
	}
	w.records, w.bytes = records, good
	return nil
}

// headerBytes returns the canonical segment header.
func headerBytes() []byte {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	return hdr[:]
}

// writeHeader writes and persists a fresh segment header: data fsync plus
// directory fsync, so the segment exists durably before any record lands
// in it. This is also the recovery probe — a disk that completes it can
// take appends again.
func writeHeader(fsys fsio.FS, f fsio.File, path string) error {
	if _, err := f.Write(headerBytes()); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return nil
}

// poisonErr wraps the latched failure for a refused operation.
func (w *Writer) poisonErr() error {
	return fmt.Errorf("%w: %w", ErrWriterFailed, w.failed)
}

// fail latches the first storage error, poisoning the writer.
func (w *Writer) fail(err error) error {
	if w.failed == nil {
		w.failed = err
	}
	return err
}

// Failed returns the latched storage error that poisoned the writer, or
// nil while it is healthy.
func (w *Writer) Failed() error { return w.failed }

// frameHead returns the pending buffer with a frame head (kind, length
// placeholder) appended, for the payload to be encoded after it. Failure
// is sticky: after the first error the segment tail may be torn, so every
// further append is refused until Rotate — appending past a torn frame
// would bury it mid-file where recovery cannot truncate it.
func (w *Writer) frameHead(kind byte) ([]byte, error) {
	if w.failed != nil {
		return nil, w.poisonErr()
	}
	if w.f == nil {
		return nil, w.fail(fmt.Errorf("ledger: append: %w", os.ErrClosed))
	}
	if w.buf == nil {
		w.buf = bufs.Get().(*[]byte)
	}
	return append(*w.buf, kind, 0, 0, 0, 0), nil
}

// appendFrame completes the frame frameHead began in b — length and CRC —
// and applies the sync policy and the write-through bound.
func (w *Writer) appendFrame(b []byte) error {
	start := len(*w.buf)
	plen := len(b) - start - 5
	if plen > maxPayload {
		// An oversized record is a caller bug, not a storage fault: nothing
		// was written, so the writer stays healthy.
		*w.buf = b[:start]
		return fmt.Errorf("ledger: record payload of %d bytes exceeds the %d-byte frame limit", plen, maxPayload)
	}
	binary.LittleEndian.PutUint32(b[start+1:], uint32(plen))
	*w.buf = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
	w.records++
	w.bytes += int64(frameOverhead + plen)
	w.pending++
	if w.syncEvery > 0 && w.pending >= w.syncEvery {
		return w.Sync()
	}
	if len(*w.buf) >= writeThrough {
		return w.write()
	}
	return nil
}

// AppendDecision appends one decision record.
func (w *Writer) AppendDecision(r loop.DecisionRecord) error {
	b, err := w.frameHead(KindDecision)
	if err != nil {
		return err
	}
	return w.appendFrame(EncodeDecision(b, &r))
}

// AppendLineItem appends one billing line-item.
func (w *Writer) AppendLineItem(it LineItem) error {
	b, err := w.frameHead(KindLineItem)
	if err != nil {
		return err
	}
	return w.appendFrame(EncodeLineItem(b, &it))
}

// write writes the pending frames with one Write; a failure poisons.
func (w *Writer) write() error {
	if w.buf == nil {
		return nil
	}
	_, err := w.f.Write(*w.buf)
	w.release()
	if err != nil {
		return w.fail(fmt.Errorf("ledger: %w", err))
	}
	return nil
}

// release returns the pending buffer, dropping whatever it holds.
func (w *Writer) release() {
	if w.buf != nil {
		*w.buf = (*w.buf)[:0]
		bufs.Put(w.buf)
		w.buf = nil
	}
}

// Sync writes the pending frames and fsyncs the file: every record
// appended so far is durable when Sync returns (a no-op when none was
// since the last Sync). A write or fsync error poisons the writer (the
// segment tail state is unknown after a failed fsync).
func (w *Writer) Sync() error {
	if w.failed != nil {
		return w.poisonErr()
	}
	if w.pending == 0 {
		return nil
	}
	if err := w.write(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("ledger: %w", err))
	}
	w.pending = 0
	w.syncs++
	return nil
}

// Rotate seals the active segment and starts a fresh one, clearing any
// poison. The active file is renamed to "<path>.seal-NNNNNN" (its intact
// prefix stays replayable; its possibly-torn tail is isolated where no
// append can ever bury it) and a new active segment is created with a
// fully fsync'd header — which doubles as the recovery probe write: if
// Rotate returns nil, the disk demonstrably completed a create, a write,
// an fsync, a rename, and a directory sync.
//
// On failure the writer stays (or becomes) poisoned and Rotate can be
// retried; a half-completed previous rotation (segment already renamed)
// is detected and resumed rather than treated as an error.
func (w *Writer) Rotate() error {
	// The old handle and any bytes pending past the failure point are
	// abandoned deliberately — they are exactly what must not reach disk.
	w.release()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	seq := 1
	if n := len(w.sealed); n > 0 {
		_, last, _ := parseSeal(w.sealed[n-1])
		seq = last + 1
	}
	sealPath := fmt.Sprintf("%s%s%06d", w.path, sealSuffix, seq)
	if err := w.fsys.Rename(w.path, sealPath); err == nil {
		w.sealed = append(w.sealed, sealPath)
	} else if !errors.Is(err, os.ErrNotExist) {
		// A missing active segment means a previous Rotate attempt already
		// renamed it (and failed later) — resume from there.
		return w.fail(fmt.Errorf("ledger: rotate: %w", err))
	}
	if err := w.fsys.SyncDir(filepath.Dir(w.path)); err != nil {
		return w.fail(fmt.Errorf("ledger: rotate: %w", err))
	}
	f, err := w.fsys.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return w.fail(fmt.Errorf("ledger: rotate: %w", err))
	}
	if err := writeHeader(w.fsys, f, w.path); err != nil {
		f.Close()
		return w.fail(err)
	}
	w.f = f
	w.records = 0
	w.bytes = headerLen
	w.pending = 0
	w.failed = nil
	w.seals++
	return nil
}

// parseSeal splits a sealed segment's base name, "<active>.seal-NNNNNN",
// into the active segment's base name and the sequence number.
func parseSeal(base string) (active string, seq int, ok bool) {
	i := strings.LastIndex(base, sealSuffix)
	if i <= 0 {
		return "", 0, false
	}
	seq, err := strconv.Atoi(base[i+len(sealSuffix):])
	return base[:i], seq, err == nil && seq > 0
}

// Index is the seal index of one ledger directory: every ledger in it,
// keyed by the base name of its active segment, with the paths of its
// sealed segments in rotation order. A ledger whose active segment is
// absent (a crash between a rotation's rename and the fresh create) is
// present through its seals.
type Index map[string][]string

// ListDir lists dir once and indexes every ledger segment in it.
func ListDir(fsys fsio.FS, dir string) (Index, error) {
	return listDir(fsys, dir, "")
}

// sealsOf lists path's directory for the sealed segments of one ledger.
func sealsOf(fsys fsio.FS, path string) ([]string, error) {
	idx, err := listDir(fsys, filepath.Dir(path), filepath.Base(path))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return idx[filepath.Base(path)], nil
}

// listDir indexes the segments in dir whose names start with prefix.
func listDir(fsys fsio.FS, dir, prefix string) (Index, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	idx := Index{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if active, _, ok := parseSeal(e.Name()); ok {
			idx[active] = append(idx[active], filepath.Join(dir, e.Name()))
		} else if _, seen := idx[e.Name()]; !seen {
			idx[e.Name()] = nil
		}
	}
	for _, seals := range idx {
		sort.Slice(seals, func(i, j int) bool {
			_, a, _ := parseSeal(seals[i])
			_, b, _ := parseSeal(seals[j])
			return a < b
		})
	}
	return idx, nil
}

// Close syncs and closes the file. A poisoned writer skips the sync —
// writing pending bytes after a failure could bury a torn frame — and
// returns the poison error after dropping them and releasing the handle.
func (w *Writer) Close() error {
	if w.f == nil {
		if w.failed != nil {
			return w.poisonErr()
		}
		return nil
	}
	var syncErr error
	if w.failed != nil {
		syncErr = w.poisonErr()
	} else {
		syncErr = w.Sync()
	}
	w.release()
	closeErr := w.f.Close()
	w.f = nil
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return fmt.Errorf("ledger: %w", closeErr)
	}
	return nil
}

// Records returns the number of records in the active segment, including
// those recovered from a previous writer's file. Sealed segments' records
// are visible through Replay, not here.
func (w *Writer) Records() int64 { return w.records }

// Bytes returns the active segment's current byte length (buffered
// appends included).
func (w *Writer) Bytes() int64 { return w.bytes }

// Syncs returns the number of fsync batches issued.
func (w *Writer) Syncs() int64 { return w.syncs }

// Seals returns how many segments this writer has sealed via Rotate.
func (w *Writer) Seals() int64 { return w.seals }

// Recorder adapts a Writer to the loop.Recorder interface: every
// DecisionRecord is appended together with its derived billing line-item,
// so the decision trail and the bill advance in lockstep. loop.Recorder
// cannot return errors; the first append failure is latched and must be
// checked via Err after the run (the serving daemon checks it after every
// ingest batch). The Writer itself is also poisoned by the failed append,
// so even a caller that ignores Err cannot keep writing past the damage.
type Recorder struct {
	// W is the destination ledger.
	W *Writer

	err error
}

// Record implements loop.Recorder.
func (r *Recorder) Record(d loop.DecisionRecord) {
	if r.err != nil {
		return
	}
	if err := r.W.AppendDecision(d); err != nil {
		r.err = err
		return
	}
	r.err = r.W.AppendLineItem(LineItemFor(d))
}

// Err returns the first append error, if any.
func (r *Recorder) Err() error { return r.err }
