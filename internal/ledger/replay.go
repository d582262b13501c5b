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

// walkFrames is the package's only frame reader: open, the query
// endpoints and ReplayFS all go through it. It checks the header of one
// segment image (read from path) and hands each intact frame to act. A bad
// header, an unknown record kind and an error from act fail the walk; a
// torn or checksum-failing tail simply ends it. It returns the byte offset
// just past the last intact frame — the recovery point — and the frame
// count.
func walkFrames(path string, data []byte, act func(kind byte, payload []byte) error) (good int64, frames int64, err error) {
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
		if kind != KindDecision && kind != KindLineItem {
			return fail(fmt.Errorf("unknown record kind %d (written by a newer version?)", kind))
		}
		if err := act(kind, payload); err != nil {
			return fail(err)
		}
		good += int64(frameOverhead) + int64(plen)
		frames++
	}
}

// scanFrames walks one segment image, decoding every frame and handing it
// to visit: the replays' frame action.
func scanFrames(path string, data []byte, visit func(Entry)) (good int64, frames int64, err error) {
	return walkFrames(path, data, func(kind byte, payload []byte) error {
		if kind == KindLineItem {
			it, err := DecodeLineItem(payload)
			if err != nil {
				return err
			}
			visit(Entry{Kind: kind, Item: &it})
			return nil
		}
		r, err := DecodeDecision(payload)
		if err != nil {
			return err
		}
		visit(Entry{Kind: kind, Decision: &r})
		return nil
	})
}

// scanTail walks one segment image for Open and advances tail over it
// exactly as scanFrames with tail.visit would. Every frame is validated by
// the decoders in skip mode, which accept what a full decode accepts and
// allocate nothing; only the segment's last decision is decoded in full.
func scanTail(path string, data []byte, tail *Tail) (good int64, frames int64, err error) {
	var last []byte // payload of the last valid decision
	good, frames, err = walkFrames(path, data, func(kind byte, payload []byte) error {
		var err error
		if kind == KindDecision {
			if err = decodeDecision(payload, true, new(loop.DecisionRecord)); err == nil {
				last = payload
			}
		} else {
			err = decodeLineItem(payload, true, new(LineItem))
		}
		if err == nil {
			tail.Unbilled = kind == KindDecision
		}
		return err
	})
	if last != nil {
		tail.Last = new(loop.DecisionRecord)
		if err := decodeDecision(last, false, tail.Last); err != nil {
			return good, frames, fmt.Errorf("ledger: %s: %w", path, err) // unreachable: last was validated
		}
	}
	return good, frames, err
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

// replaySegment reads one segment file whole and decodes it into the log.
func (l *Log) replaySegment(fsys fsio.FS, path string) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	good, _, err := scanFrames(path, data, func(e Entry) { l.Entries = append(l.Entries, e) })
	if err != nil {
		return err
	}
	l.GoodBytes += good
	l.Truncated = l.Truncated || good < int64(len(data))
	l.Segments++
	return nil
}
