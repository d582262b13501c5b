package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"daasscale/internal/loop"
)

// TestAppendSyncAllocs: a writer borrows its pending buffer for one
// request and encodes every frame straight into it, so a steady-state
// request — 50 decisions, their 50 line items and the Sync that writes
// them once — allocates nothing.
func TestAppendSyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w, err := OpenWriter(filepath.Join(t.TempDir(), "t.ledger"), WithSyncEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(5))
	recs := make([]loop.DecisionRecord, 50)
	for i := range recs {
		recs[i] = randRecord(rng)
		recs[i].Explanations = []string{"warming up: not enough telemetry history", "container B2 → B3"}
	}
	request := func() {
		for i := range recs {
			if err := w.AppendDecision(recs[i]); err != nil {
				t.Fatal(err)
			}
			if err := w.AppendLineItem(LineItemFor(recs[i])); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	request() // grows the pooled buffer to a request's size
	if got := testing.AllocsPerRun(20, request); got != 0 {
		t.Fatalf("append+Sync of 50 decisions: %.1f allocations, want 0", got)
	}
}

// TestDecodeRejectsNonCanonicalBool: a bool byte other than 0 or 1 is
// corruption, not true — two payloads never decode to the same record.
func TestDecodeRejectsNonCanonicalBool(t *testing.T) {
	p := EncodeDecision(nil, &loop.DecisionRecord{Changed: true})
	off := 0 // the Changed byte: where p differs from an all-false record
	for p[off] == EncodeDecision(nil, &loop.DecisionRecord{})[off] {
		off++
	}
	if _, err := DecodeDecision(p); err != nil {
		t.Fatal(err)
	}
	for _, b := range []byte{2, 0xff} {
		p[off] = b
		if _, err := DecodeDecision(p); err == nil {
			t.Fatalf("a bool byte of %#x decoded", b)
		}
	}
}

// FuzzDecodeDecision holds both record decoders to the codec's contract
// on arbitrary payloads: decoding never panics, a payload that decodes
// re-encodes to exactly its own bytes, and the skip-mode decode Open
// validates with accepts and refuses exactly what the full decode does,
// with the same error.
func FuzzDecodeDecision(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		r := randRecord(rng)
		f.Add(EncodeDecision(nil, &r))
		it := LineItemFor(r)
		f.Add(EncodeLineItem(nil, &it))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeDecision(payload)
		if serr := decodeDecision(payload, true, new(loop.DecisionRecord)); fmt.Sprint(serr) != fmt.Sprint(err) {
			t.Fatalf("decision: skip-mode decode says %v, full decode %v", serr, err)
		}
		if err == nil {
			if got := EncodeDecision(nil, &r); !bytes.Equal(got, payload) {
				t.Fatalf("decision re-encodes to different bytes\nin  %x\nout %x", payload, got)
			}
		}
		it, err := DecodeLineItem(payload)
		if serr := decodeLineItem(payload, true, new(LineItem)); fmt.Sprint(serr) != fmt.Sprint(err) {
			t.Fatalf("line item: skip-mode decode says %v, full decode %v", serr, err)
		}
		if err == nil {
			if got := EncodeLineItem(nil, &it); !bytes.Equal(got, payload) {
				t.Fatalf("line item re-encodes to different bytes\nin  %x\nout %x", payload, got)
			}
		}
	})
}

// FuzzScanFrames holds Open's segment scan to the replay's on arbitrary
// segment images: scanTail and scanFrames with Tail.visit agree on the
// recovery point, the frame count, the error and the tail, from an empty
// tail and from one a previous segment left. Tails are compared by
// canonical encoding, which treats NaN bit patterns exactly.
func FuzzScanFrames(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 4; n++ {
		image := headerBytes()
		for i := 0; i < n; i++ {
			r := randRecord(rng)
			image = append(image, rawFrame(KindDecision, EncodeDecision(nil, &r))...)
			image = append(image, rawFrame(KindLineItem, EncodeLineItem(nil, &LineItem{Tenant: r.Tenant, Interval: i}))...)
		}
		for _, cut := range []int{len(image), len(image) - 1, len(image) - 14, headerLen + 3, headerLen - 1} {
			if cut >= 0 && cut <= len(image) {
				f.Add(image[:cut])
			}
		}
	}
	f.Add(append(headerBytes(), rawFrame(KindDecision, []byte("x"))...))
	f.Add(append(headerBytes(), rawFrame(9, []byte("from the future"))...))
	prev := randRecord(rng)
	f.Fuzz(func(t *testing.T, image []byte) { checkScanAgrees(t, image, &prev) })
}

// FuzzScanFramedPayloads reaches the record decoders through valid framing:
// it frames two fuzzed payloads under their fuzzed kind bytes, with correct
// checksums, behind a good header, and cuts the image at a fuzzed offset.
// A mutated whole segment image (FuzzScanFrames) almost never keeps a valid
// CRC-32C, so its mutations rarely get past the framing walk.
func FuzzScanFramedPayloads(f *testing.F) {
	add := func(p1 []byte, k1 byte, p2 []byte, k2 byte, trim int) {
		f.Add(p1, k1, p2, k2, uint(headerLen+2*frameOverhead+len(p1)+len(p2)-trim))
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3; i++ {
		r := randRecord(rng)
		dec, item := EncodeDecision(nil, &r), EncodeLineItem(nil, &LineItem{Tenant: r.Tenant, Interval: i})
		add(dec, KindDecision, item, KindLineItem, 0)              // billed
		add(dec, KindDecision, item, KindLineItem, 3)              // torn line item
		add(item, KindLineItem, dec[:len(dec)/2], KindDecision, 0) // undecodable decision
		add(item, KindLineItem, dec, KindDecision, 0)              // unbilled
	}
	add([]byte("x"), 9, nil, KindDecision, 0) // unknown kind
	prev := randRecord(rng)
	f.Fuzz(func(t *testing.T, p1 []byte, k1 byte, p2 []byte, k2 byte, cut uint) {
		image := append(append(headerBytes(), rawFrame(k1, p1)...), rawFrame(k2, p2)...)
		checkScanAgrees(t, image[:cut%uint(len(image)+1)], &prev)
	})
}

// checkScanAgrees requires scanTail and scanFrames+Tail.visit to agree on
// image's recovery offset, frame count, error text and Tail, from an empty
// tail and from one a previous segment left (records compare by canonical
// encoding because of NaN).
func checkScanAgrees(t *testing.T, image []byte, prev *loop.DecisionRecord) {
	t.Helper()
	for _, start := range []Tail{{}, {Last: prev, Unbilled: true}} {
		want := start
		wantGood, wantFrames, wantErr := scanFrames("seg", image, want.visit)
		got := start
		good, frames, err := scanTail("seg", image, &got)
		if good != wantGood || frames != wantFrames || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("scanTail: %d bytes, %d frames, %v; scanFrames: %d, %d, %v", good, frames, err, wantGood, wantFrames, wantErr)
		}
		if got.Unbilled != want.Unbilled || (got.Last == nil) != (want.Last == nil) ||
			got.Last != nil && !recordsEqual(*got.Last, *want.Last) {
			t.Fatalf("scanTail's tail %+v, scanFrames' %+v", got, want)
		}
	}
}
