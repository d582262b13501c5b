package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"daasscale/internal/fsio"
	"daasscale/internal/loop"
)

// Entry is one replayed ledger record in file order. Exactly one of
// Decision/Item is non-nil, per Kind.
type Entry struct {
	// Kind is the frame kind (KindDecision or KindLineItem).
	Kind byte
	// Decision is the decoded decision record (Kind == KindDecision).
	Decision *loop.DecisionRecord
	// Item is the decoded billing line-item (Kind == KindLineItem).
	Item *LineItem
}

// Log is the full replayed contents of one ledger — every segment
// (sealed and active), concatenated in rotation order.
type Log struct {
	// Entries holds every intact record in append order.
	Entries []Entry
	// GoodBytes sums, over all segments, the byte offset of the end of
	// each segment's last intact record. For an unrotated ledger this is
	// the offset of the end of the last intact record in the file.
	GoodBytes int64
	// Truncated reports whether any segment carried bytes past its intact
	// records — the torn tail a crash mid-append leaves. The intact
	// records are still fully usable; OpenWriter removes an active
	// segment's tail when it next appends, and a sealed segment's tail is
	// permanently isolated by the rotation.
	Truncated bool
	// Segments is how many segment files were replayed (1 for an
	// unrotated ledger).
	Segments int
}

// Decisions extracts the decision records in append order.
func (l *Log) Decisions() []loop.DecisionRecord {
	var out []loop.DecisionRecord
	for _, e := range l.Entries {
		if e.Decision != nil {
			out = append(out, *e.Decision)
		}
	}
	return out
}

// Items extracts the billing line-items in append order.
func (l *Log) Items() []LineItem {
	var out []LineItem
	for _, e := range l.Entries {
		if e.Item != nil {
			out = append(out, *e.Item)
		}
	}
	return out
}

// TotalCost sums every line-item charge — the bill the ledger supports.
func (l *Log) TotalCost() float64 {
	var t float64
	for _, e := range l.Entries {
		if e.Item != nil {
			t += e.Item.Cost
		}
	}
	return t
}

// Tail is the end of a ledger's record stream: everything a resuming
// caller needs from a replay without keeping the records.
type Tail struct {
	// Last is the last decision record (nil for a ledger holding none).
	Last *loop.DecisionRecord
	// Unbilled reports that Last is the final record — the line item
	// derived from it never reached disk (a torn tail can cut between the
	// two) and the caller must append it.
	Unbilled bool
}

// visit advances the tail over one more record.
func (t *Tail) visit(e Entry) {
	t.Unbilled = e.Decision != nil
	if t.Unbilled {
		t.Last = e.Decision
	}
}

// Tail returns the end of the log's record stream.
func (l *Log) Tail() Tail {
	var t Tail
	for _, e := range l.Entries {
		t.visit(e)
	}
	return t
}

// scanFrames walks the framed region of one segment image (read from
// path), decoding each intact frame and handing it to visit. It is the
// only frame reader: open, the query endpoints and ReplayFS all go through
// it. It returns the byte offset just past the last intact frame and the
// frame count. A bad header, an unknown record kind and an undecodable
// payload are errors; a torn or checksum-failing tail simply ends the
// scan — the returned offset is the recovery point.
func scanFrames(path string, data []byte, visit func(Entry)) (good int64, frames int64, err error) {
	fail := func(err error) (int64, int64, error) {
		return good, frames, fmt.Errorf("ledger: %s: %w", path, err)
	}
	if len(data) < headerLen {
		return fail(fmt.Errorf("file is shorter than a ledger header"))
	}
	if binary.LittleEndian.Uint32(data[0:]) != Magic {
		return fail(fmt.Errorf("not a ledger file (bad magic)"))
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return fail(fmt.Errorf("ledger format version %d, this build reads %d", v, Version))
	}
	good = headerLen
	for {
		rest := data[good:]
		if len(rest) < frameOverhead {
			return good, frames, nil // clean end or torn frame head
		}
		kind := rest[0]
		plen := binary.LittleEndian.Uint32(rest[1:])
		if plen > maxPayload || int64(len(rest)) < int64(frameOverhead)+int64(plen) {
			return good, frames, nil // torn payload (or torn length field)
		}
		payload := rest[5 : 5+plen]
		crc := crc32.Update(0, crcTable, rest[:5])
		crc = crc32.Update(crc, crcTable, payload)
		if binary.LittleEndian.Uint32(rest[5+plen:]) != crc {
			return good, frames, nil // checksum mismatch: treat as torn tail
		}
		switch kind {
		case KindDecision:
			r, err := DecodeDecision(payload)
			if err != nil {
				return fail(err)
			}
			visit(Entry{Kind: kind, Decision: &r})
		case KindLineItem:
			it, err := DecodeLineItem(payload)
			if err != nil {
				return fail(err)
			}
			visit(Entry{Kind: kind, Item: &it})
		default:
			return fail(fmt.Errorf("unknown record kind %d (written by a newer version?)", kind))
		}
		good += int64(frameOverhead) + int64(plen)
		frames++
	}
}

// scanFile reads one segment file whole and scans it.
func scanFile(fsys fsio.FS, path string, visit func(Entry)) (good int64, torn bool, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, false, fmt.Errorf("ledger: %w", err)
	}
	good, _, err = scanFrames(path, data, visit)
	return good, good < int64(len(data)), err
}

// ReplayFS lists path's directory for its sealed segments and replays the
// ledger: every intact record of every segment — sealed segments in
// rotation order, then the active file — in append order, byte-faithfully
// decoded. It is the inverse of the Writer: for any recorded run,
// Decisions() equals the live Collector's records and the line-items
// re-derive the bill exactly, across rotations. A torn tail is reported
// via Log.Truncated, not an error; an unreadable or non-ledger segment is
// an error. An absent active file is tolerated when sealed segments exist
// (a crash can land between the rotation's rename and the new segment's
// create); with no segments at all the path's os.ErrNotExist surfaces.
func ReplayFS(fsys fsio.FS, path string) (*Log, error) {
	seals, err := sealsOf(fsys, path)
	if err != nil {
		return nil, err
	}
	return replaySegments(fsys, seals, path)
}

// Replay replays the writer's own ledger — its remembered sealed segments,
// then the active one — without listing the directory. Records still
// buffered are not on disk yet; Sync first to see them.
func (w *Writer) Replay() (*Log, error) {
	return replaySegments(w.fsys, w.sealed, w.path)
}

// replaySegments decodes seals, then the active segment, into one Log.
func replaySegments(fsys fsio.FS, seals []string, active string) (*Log, error) {
	log := &Log{}
	for _, seg := range seals {
		if err := log.replaySegment(fsys, seg); err != nil {
			return nil, err
		}
	}
	if err := log.replaySegment(fsys, active); err != nil && (len(seals) == 0 || !errors.Is(err, os.ErrNotExist)) {
		return nil, err
	}
	return log, nil
}

// replaySegment decodes one segment file into the log.
func (l *Log) replaySegment(fsys fsio.FS, path string) error {
	good, torn, err := scanFile(fsys, path, func(e Entry) { l.Entries = append(l.Entries, e) })
	if err != nil {
		return err
	}
	l.GoodBytes += good
	l.Truncated = l.Truncated || torn
	l.Segments++
	return nil
}

// StreamBytes re-encodes the log's entries into the byte stream the live
// writer framed, payloads only, in append order. Because the encoding is
// deterministic this reproduces the originally-written payload bytes
// exactly, so "replay is a prefix of the live stream" can be checked as
// plain byte comparison even across segment rotations.
func (l *Log) StreamBytes() []byte {
	var out []byte
	for _, e := range l.Entries {
		switch {
		case e.Decision != nil:
			out = append(out, EncodeDecision(e.Decision)...)
		case e.Item != nil:
			out = append(out, EncodeLineItem(e.Item)...)
		}
	}
	return out
}
