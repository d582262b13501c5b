package ledger

import (
	"encoding/binary"
	"fmt"
	"math"

	"daasscale/internal/fabric"
	"daasscale/internal/faults"
	"daasscale/internal/loop"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// The record codec. Every field is written in a fixed order with a fixed
// width encoding — integers as little-endian two's-complement u64, floats
// as their exact IEEE-754 bit pattern, strings and slices length-prefixed
// — so encoding is a pure function of the record's value: the same
// DecisionRecord always produces the same bytes, which is what makes
// "replay the ledger ≡ re-run the month" a byte-level property rather
// than an approximate one. Fixed-size arrays (resource kinds, wait
// classes, fault kinds) are still length-prefixed and the length is
// validated on decode, so a ledger written before a constant grew fails
// loudly instead of mis-framing.

// encBuf accumulates one record payload.
type encBuf struct{ b []byte }

func (e *encBuf) i64(v int)     { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(int64(v))) }
func (e *encBuf) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *encBuf) boolean(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *encBuf) str(s string) {
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *encBuf) strs(ss []string) {
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// decBuf consumes one record payload. With skip set it validates exactly
// as a full decode does, but strings are bounds-checked, never copied.
type decBuf struct {
	b    []byte
	off  int
	err  error
	skip bool
}

func (d *decBuf) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("ledger: truncated record payload at offset %d", d.off)
	}
}

func (d *decBuf) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decBuf) i64() int {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return int(v)
}

func (d *decBuf) f64() float64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// boolean accepts only the two bytes the encoder writes: any other byte
// is corruption, so distinct payloads never decode to the same record.
func (d *decBuf) boolean() bool {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return false
	}
	v := d.b[d.off]
	if v > 1 {
		d.err = fmt.Errorf("ledger: bool byte 0x%02x at offset %d is neither 0 nor 1", v, d.off)
		return false
	}
	d.off++
	return v == 1
}

func (d *decBuf) str() string {
	n := int(d.u32())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	var s string
	if !d.skip {
		s = string(d.b[d.off : d.off+n])
	}
	d.off += n
	return s
}

func (d *decBuf) strs() []string {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n == 0 {
		// Zero-length decodes to nil, matching what policies emit for a
		// silent decision — DeepEqual against live records holds.
		return nil
	}
	if n > len(d.b)-d.off { // each string needs ≥4 bytes of length prefix
		d.fail()
		return nil
	}
	var ss []string
	if !d.skip {
		ss = make([]string, 0, n)
	}
	for i := 0; i < n; i++ {
		if s := d.str(); !d.skip {
			ss = append(ss, s)
		}
	}
	return ss
}

// fixedLen writes/validates the length prefix of a fixed-size array.
func (d *decBuf) fixedLen(want int, what string) bool {
	n := int(d.u32())
	if d.err != nil {
		return false
	}
	if n != want {
		d.err = fmt.Errorf("ledger: %s has %d entries, this build expects %d (ledger written by an incompatible version)", what, n, want)
		return false
	}
	return true
}

func encodeSnapshot(e *encBuf, s *telemetry.Snapshot) {
	e.i64(s.Interval)
	e.str(s.Container)
	e.i64(s.Step)
	e.f64(s.Cost)
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(resource.NumKinds))
	for _, k := range resource.Kinds {
		e.f64(s.Utilization[k])
	}
	for _, k := range resource.Kinds {
		e.f64(s.UtilizationPeak[k])
	}
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(telemetry.NumWaitClasses))
	for c := range s.WaitMs {
		e.f64(s.WaitMs[c])
	}
	e.f64(s.AvgLatencyMs)
	e.f64(s.P95LatencyMs)
	e.f64(s.Transactions)
	e.f64(s.OfferedRPS)
	e.f64(s.MemoryUsedMB)
	e.f64(s.PhysicalReads)
	e.f64(s.PhysicalWrites)
}

func decodeSnapshot(d *decBuf, s *telemetry.Snapshot) {
	s.Interval = d.i64()
	s.Container = d.str()
	s.Step = d.i64()
	s.Cost = d.f64()
	if !d.fixedLen(resource.NumKinds, "resource vector") {
		return
	}
	for _, k := range resource.Kinds {
		s.Utilization[k] = d.f64()
	}
	for _, k := range resource.Kinds {
		s.UtilizationPeak[k] = d.f64()
	}
	if !d.fixedLen(telemetry.NumWaitClasses, "wait-class array") {
		return
	}
	for c := range s.WaitMs {
		s.WaitMs[c] = d.f64()
	}
	s.AvgLatencyMs = d.f64()
	s.P95LatencyMs = d.f64()
	s.Transactions = d.f64()
	s.OfferedRPS = d.f64()
	s.MemoryUsedMB = d.f64()
	s.PhysicalReads = d.f64()
	s.PhysicalWrites = d.f64()
}

// EncodeDecision appends one DecisionRecord's canonical payload bytes to b
// and returns the extended buffer (no frame header or checksum — the
// Writer adds those).
func EncodeDecision(b []byte, r *loop.DecisionRecord) []byte {
	e := &encBuf{b: b}
	e.str(r.Tenant)
	e.i64(r.Interval)
	encodeSnapshot(e, &r.Snapshot)
	e.str(r.Actual)
	e.str(r.Target)
	e.boolean(r.Changed)
	e.boolean(r.Observed)
	e.boolean(r.Submitted)
	e.f64(r.BalloonTargetMB)
	e.strs(r.Explanations)
	e.i64(r.Delivered)
	e.i64(r.Faults.Intervals)
	e.i64(r.Faults.Delivered)
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(faults.NumKinds))
	for _, n := range r.Faults.Injected {
		e.i64(n)
	}
	e.i64(r.Actuation.Submitted)
	e.i64(r.Actuation.Ops)
	e.i64(r.Actuation.Attempts)
	e.i64(r.Actuation.Retries)
	e.i64(r.Actuation.Applied)
	e.i64(r.Actuation.Throttled)
	e.i64(r.Actuation.TransientFailures)
	e.i64(r.Actuation.Refused)
	e.i64(r.Actuation.Superseded)
	e.i64(r.Actuation.Expired)
	e.i64(r.Actuation.SumEffectIntervals)
	e.i64(r.Actuation.MaxEffectIntervals)
	// Contention stamp (format version 2): the hosting node and its
	// interference state, appended after every v1 field.
	e.i64(r.Node)
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(fabric.NumPressureChannels))
	for _, ch := range fabric.PressureChannels {
		e.f64(r.NodePressure[ch])
	}
	for _, ch := range fabric.PressureChannels {
		e.f64(r.WaitInflation[ch])
	}
	return e.b
}

// DecodeDecision parses a payload produced by EncodeDecision. Trailing
// bytes are an error: a frame carries exactly one record.
func DecodeDecision(payload []byte) (loop.DecisionRecord, error) {
	var r loop.DecisionRecord
	if err := decodeDecision(payload, false, &r); err != nil {
		return loop.DecisionRecord{}, err
	}
	return r, nil
}

// decodeDecision is DecodeDecision into r. With skip it only validates: r
// gets the fixed-width fields, no strings and no explanations.
func decodeDecision(payload []byte, skip bool, r *loop.DecisionRecord) error {
	d := &decBuf{b: payload, skip: skip}
	r.Tenant = d.str()
	r.Interval = d.i64()
	decodeSnapshot(d, &r.Snapshot)
	r.Actual = d.str()
	r.Target = d.str()
	r.Changed = d.boolean()
	r.Observed = d.boolean()
	r.Submitted = d.boolean()
	r.BalloonTargetMB = d.f64()
	r.Explanations = d.strs()
	r.Delivered = d.i64()
	r.Faults.Intervals = d.i64()
	r.Faults.Delivered = d.i64()
	if d.fixedLen(faults.NumKinds, "fault-kind array") {
		for i := range r.Faults.Injected {
			r.Faults.Injected[i] = d.i64()
		}
	}
	r.Actuation.Submitted = d.i64()
	r.Actuation.Ops = d.i64()
	r.Actuation.Attempts = d.i64()
	r.Actuation.Retries = d.i64()
	r.Actuation.Applied = d.i64()
	r.Actuation.Throttled = d.i64()
	r.Actuation.TransientFailures = d.i64()
	r.Actuation.Refused = d.i64()
	r.Actuation.Superseded = d.i64()
	r.Actuation.Expired = d.i64()
	r.Actuation.SumEffectIntervals = d.i64()
	r.Actuation.MaxEffectIntervals = d.i64()
	r.Node = d.i64()
	if d.fixedLen(fabric.NumPressureChannels, "pressure-channel array") {
		for _, ch := range fabric.PressureChannels {
			r.NodePressure[ch] = d.f64()
		}
		for _, ch := range fabric.PressureChannels {
			r.WaitInflation[ch] = d.f64()
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(payload) {
		return fmt.Errorf("ledger: decision record has %d trailing bytes", len(payload)-d.off)
	}
	return nil
}

// EncodeLineItem appends one billing line-item's canonical payload to b
// and returns the extended buffer.
func EncodeLineItem(b []byte, it *LineItem) []byte {
	e := &encBuf{b: b}
	e.str(it.Tenant)
	e.i64(it.Interval)
	e.str(it.Container)
	e.f64(it.Cost)
	return e.b
}

// DecodeLineItem parses a payload produced by EncodeLineItem.
func DecodeLineItem(payload []byte) (LineItem, error) {
	var it LineItem
	if err := decodeLineItem(payload, false, &it); err != nil {
		return LineItem{}, err
	}
	return it, nil
}

// decodeLineItem is DecodeLineItem into it; with skip it only validates.
func decodeLineItem(payload []byte, skip bool, it *LineItem) error {
	d := &decBuf{b: payload, skip: skip}
	it.Tenant = d.str()
	it.Interval = d.i64()
	it.Container = d.str()
	it.Cost = d.f64()
	if d.err != nil {
		return d.err
	}
	if d.off != len(payload) {
		return fmt.Errorf("ledger: line item has %d trailing bytes", len(payload)-d.off)
	}
	return nil
}
