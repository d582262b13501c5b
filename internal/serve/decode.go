package serve

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"daasscale/internal/telemetry"
)

// The ingest body decoder: one pass, no reflection, over the fixed shape
// {"seq","snapshot","batch"} around telemetry.Snapshot. It decodes as
// encoding/json with DisallowUnknownFields decodes the body into
// struct{ wireSnapshot; Batch []wireSnapshot }, then flattens that: the
// top-level snapshot first when it has a seq or a non-zero field, then the
// batch. DESIGN §14 "Wire decoding" lists the corners that takes, and
// FuzzDecodeTelemetry holds the decoder to encoding/json. The one
// divergence: a body over maxBodyBytes is refused whole.

// ingestItem is one decoded snapshot and the sequence number it is ingested
// under: the wire's seq when one was given, else the snapshot's Interval.
type ingestItem struct {
	seq    int
	snap   telemetry.Snapshot
	hasSeq bool // the wire's seq was given (and not null)
}

// maxDepth is encoding/json's nesting limit for objects and arrays.
const maxDepth = 10000

// decoder is the state of one decode. Decoders are pooled and keep their
// buffers, and the last Container string, between uses.
type decoder struct {
	body       bytes.Buffer
	b          []byte
	off, depth int
	err        error
	key, tmp   []byte // the current member's folded key; the unquoting buffer
	// items[0] is the top-level snapshot and items[1:] the batch's backing
	// array, up to the longest batch in the body: a repeated "batch" key
	// decodes into the elements an earlier one left, as encoding/json
	// reuses a slice. n is the batch's length.
	items []ingestItem
	n     int
	last  string // the last Container decoded, reused when the bytes match
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decodeBody reads r to the end and decodes it. The items belong to the
// returned decoder, which the caller releases (on error too); they are
// valid until then.
func decodeBody(r io.Reader) (*decoder, []ingestItem, error) {
	d := decoders.Get().(*decoder)
	d.body.Reset()
	if _, err := d.body.ReadFrom(r); err != nil {
		return d, nil, err
	}
	d.b, d.off, d.depth, d.err = d.body.Bytes(), 0, 0, nil
	d.items, d.n = append(d.items[:0], ingestItem{}), 0
	if d.wire(0); d.err != nil {
		return d, nil, d.err
	}
	if top := d.items[0]; top.hasSeq || top.snap != (telemetry.Snapshot{}) {
		return d, d.items[:1+d.n], nil
	}
	return d, d.items[1 : 1+d.n], nil
}

// release returns the decoder to the pool, unless a rare huge body grew it.
func (d *decoder) release() {
	if d.body.Cap() <= 1<<20 && cap(d.items) <= 4096 {
		decoders.Put(d)
	}
}

// wire decodes a wireSnapshot into items[at] and resolves its seq; the
// top-level one, at 0, also takes "batch". items is indexed afresh for
// every member because a batch may grow it.
func (d *decoder) wire(at int) {
	if d.each('{', func(int) {
		switch it, key := &d.items[at], string(d.key); {
		case key == "SEQ":
			it.hasSeq = d.int(&it.seq)
		case key == "SNAPSHOT":
			d.snapshot(&it.snap)
		case key == "BATCH" && at == 0:
			d.batch()
		default:
			d.fail("unknown field " + strconv.Quote(key))
		}
	}) >= 0 && !d.items[at].hasSeq {
		d.items[at].seq = d.items[at].snap.Interval
	}
}

func (d *decoder) batch() {
	n := d.each('[', func(i int) {
		if 1+i == len(d.items) {
			d.items = append(d.items, ingestItem{})
		}
		d.wire(1 + i)
	})
	if d.n = max(n, 0); n <= 0 {
		d.items = d.items[:1] // null, or [] (encoding/json makes a new slice)
	}
}

func (d *decoder) snapshot(s *telemetry.Snapshot) {
	d.each('{', func(int) {
		switch string(d.key) {
		case "INTERVAL":
			d.int(&s.Interval)
		case "CONTAINER":
			if !d.null() {
				if c := d.str(); string(c) != d.last {
					d.last = string(c)
				}
				s.Container = d.last
			}
		case "STEP":
			d.int(&s.Step)
		case "COST":
			d.float(&s.Cost)
		case "UTILIZATION":
			d.floats(s.Utilization[:])
		case "UTILIZATIONPEAK":
			d.floats(s.UtilizationPeak[:])
		case "WAITMS":
			d.floats(s.WaitMs[:])
		case "AVGLATENCYMS":
			d.float(&s.AvgLatencyMs)
		case "P95LATENCYMS":
			d.float(&s.P95LatencyMs)
		case "TRANSACTIONS":
			d.float(&s.Transactions)
		case "OFFEREDRPS":
			d.float(&s.OfferedRPS)
		case "MEMORYUSEDMB":
			d.float(&s.MemoryUsedMB)
		case "PHYSICALREADS":
			d.float(&s.PhysicalReads)
		case "PHYSICALWRITES":
			d.float(&s.PhysicalWrites)
		default:
			d.fail("unknown field " + strconv.Quote(string(d.key)))
		}
	})
}

// floats decodes an array into a fixed array: a short one zero-fills the
// rest, surplus elements of any type are skipped.
func (d *decoder) floats(dst []float64) {
	n := d.each('[', func(i int) {
		if i < len(dst) {
			d.float(&dst[i])
		} else {
			d.skip()
		}
	})
	if 0 <= n && n < len(dst) {
		clear(dst[n:])
	}
}

// int decodes a number into *p and reports whether there was one: a null
// leaves *p alone.
func (d *decoder) int(p *int) bool {
	if d.null() {
		return false
	}
	v, err := strconv.ParseInt(string(d.number()), 10, 0)
	*p = int(v)
	d.fail(err)
	return true
}

func (d *decoder) float(p *float64) {
	if !d.null() {
		v, err := strconv.ParseFloat(string(d.number()), 64)
		*p = v
		d.fail(err)
	}
}

// skip consumes any one value.
func (d *decoder) skip() {
	switch c := d.peek(); c {
	case '{', '[':
		d.each(c, func(int) { d.skip() })
	case '"':
		d.str()
	case 't', 'f', 'n':
		d.literal()
	default:
		d.number()
	}
}

// each walks the object or array, by its open byte, that must come next,
// calling f with the index of every element or member — a member's key
// folded into d.key — and returns their count; -1 for a null.
func (d *decoder) each(open byte, f func(i int)) int {
	if d.null() {
		return -1
	}
	if d.peek() != open || d.depth == maxDepth {
		d.fail("expected " + string(open) + " within the nesting limit")
		return 0
	}
	d.off, d.depth = d.off+1, d.depth+1
	end := open + 2 // '{' → '}', '[' → ']'
	for i := 0; ; i++ {
		switch c := d.peek(); {
		case c == end:
			d.off, d.depth = d.off+1, d.depth-1
			return i
		case i > 0 && c != ',':
			d.fail("expected , or " + string(end))
			return i
		case i > 0:
			d.off++
		}
		if open == '{' && !d.member() {
			return i
		}
		if f(i); d.err != nil {
			return i
		}
	}
}

// member consumes a key and its colon, leaving the key in d.key folded as
// encoding/json folds names: ASCII to upper case, any other rune to the
// smallest rune of its case-fold orbit (so U+017F ſ folds to S).
func (d *decoder) member() bool {
	k := d.str()
	d.key = d.key[:0]
	for len(k) > 0 {
		r, n := rune(k[0]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(k)
			f := unicode.SimpleFold(r)
			for f > r {
				r, f = f, unicode.SimpleFold(f)
			}
			r = f
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		d.key = utf8.AppendRune(d.key, r)
		k = k[n:]
	}
	if d.peek() != ':' {
		d.fail("expected :")
		return false
	}
	d.off++
	return true
}

// number consumes the number that must come next, held to the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (d *decoder) number() []byte {
	d.peek()
	b, i, start := d.b, d.off, d.off
	digits := func() (n int) {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			n++
		}
		return n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	n := digits()
	ok := n == 1 || n > 1 && b[i-n] != '0'
	if ok && i < len(b) && b[i] == '.' {
		i++
		ok = digits() > 0
	}
	if ok && i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok = digits() > 0
	}
	if !ok || d.err != nil {
		d.fail("invalid number")
		return nil
	}
	d.off = i
	return b[start:i]
}

// str consumes the string that must come next and returns its contents as
// encoding/json decodes them: escapes resolved, invalid UTF-8 and unpaired
// surrogates as U+FFFD. A plain string is returned in place.
func (d *decoder) str() []byte {
	if d.peek() != '"' {
		d.fail("expected a string")
		return nil
	}
	b, i := d.b, d.off+1
	for i < len(b) && b[i] != '"' && b[i] != '\\' && ' ' <= b[i] && b[i] < utf8.RuneSelf {
		i++
	}
	if s := b[d.off+1 : i]; i < len(b) && b[i] == '"' {
		d.off = i + 1
		return s
	}
	for d.tmp = append(d.tmp[:0], b[d.off+1:i]...); i < len(b); d.off = i {
		switch c := b[i]; {
		case c == '"':
			d.off = i + 1
			return d.tmp
		case c < ' ':
			d.fail("control character in string")
			return nil
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(b[i:])
			d.tmp, i = utf8.AppendRune(d.tmp, r), i+n
		case c != '\\':
			d.tmp, i = append(d.tmp, c), i+1
		case i+1 < len(b) && strings.IndexByte(`"\/bfnrt`, b[i+1]) >= 0:
			c = "\"\\/\b\f\n\r\t"[strings.IndexByte(`"\/bfnrt`, b[i+1])]
			d.tmp, i = append(d.tmp, c), i+2
		case hex4(b, i) < 0:
			d.fail("invalid escape")
			return nil
		default:
			r := hex4(b, i)
			if i += 6; utf16.IsSurrogate(r) {
				if r = utf16.DecodeRune(r, hex4(b, i)); r != utf8.RuneError {
					i += 6 // the low half of a valid pair
				}
			}
			d.tmp = utf8.AppendRune(d.tmp, r)
		}
	}
	d.fail("unterminated string")
	return nil
}

// hex4 returns the code unit of the \uXXXX escape at b[i:], or -1.
func hex4(b []byte, i int) rune {
	if i+6 <= len(b) && b[i] == '\\' && b[i+1] == 'u' {
		if v, err := strconv.ParseUint(string(b[i+2:i+6]), 16, 16); err == nil {
			return rune(v)
		}
	}
	return -1
}

// null consumes a null if one is next.
func (d *decoder) null() bool { return d.peek() == 'n' && d.literal() }

// literal consumes the true, false or null that must come next.
func (d *decoder) literal() bool {
	for _, lit := range [...]string{"true", "false", "null"} {
		if len(d.b)-d.off >= len(lit) && string(d.b[d.off:d.off+len(lit)]) == lit {
			d.off += len(lit)
			return true
		}
	}
	d.fail("invalid literal")
	return false
}

// peek skips whitespace and returns the next byte without consuming it: 0
// at the end of the body or once decoding has failed.
func (d *decoder) peek() byte {
	for ; d.err == nil && d.off < len(d.b); d.off++ {
		if c := d.b[d.off]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// fail records the first error: what is a message or an error, and a nil
// error is no failure.
func (d *decoder) fail(what any) {
	if d.err == nil && what != nil {
		d.err = fmt.Errorf("offset %d: %v", d.off, what)
	}
}
