package ledger

import (
	"bytes"
	"math/rand"
	"testing"

	"daasscale/internal/loop"
)

// TestDecisionFixedLen pins decisionFixedLen to the codec and checks that
// EncodeDecision sizes its buffer exactly.
func TestDecisionFixedLen(t *testing.T) {
	if got := len(EncodeDecision(&loop.DecisionRecord{})); got != decisionFixedLen {
		t.Fatalf("an empty record encodes to %d bytes, decisionFixedLen is %d", got, decisionFixedLen)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		r := randRecord(rng)
		if p := EncodeDecision(&r); cap(p) != len(p) {
			t.Fatalf("record %d: %d bytes in a buffer of %d", i, len(p), cap(p))
		}
	}
}

func TestEncodeDecisionAllocs(t *testing.T) {
	r := randRecord(rand.New(rand.NewSource(5)))
	r.Explanations = []string{"warming up: not enough telemetry history", "container B2 → B3"}
	if got := testing.AllocsPerRun(100, func() { EncodeDecision(&r) }); got != 1 {
		t.Fatalf("EncodeDecision: %.1f allocations, want exactly 1", got)
	}
}

// TestDecodeRejectsNonCanonicalBool: a bool byte other than 0 or 1 is
// corruption, not true — two payloads never decode to the same record.
func TestDecodeRejectsNonCanonicalBool(t *testing.T) {
	p := EncodeDecision(&loop.DecisionRecord{Changed: true})
	off := 0 // the Changed byte: where p differs from an all-false record
	for p[off] == EncodeDecision(&loop.DecisionRecord{})[off] {
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
// on arbitrary payloads: decoding never panics, and a payload that decodes
// re-encodes to exactly its own bytes.
func FuzzDecodeDecision(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		r := randRecord(rng)
		f.Add(EncodeDecision(&r))
		it := LineItemFor(r)
		f.Add(EncodeLineItem(&it))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if r, err := DecodeDecision(payload); err == nil {
			if got := EncodeDecision(&r); !bytes.Equal(got, payload) {
				t.Fatalf("decision re-encodes to different bytes\nin  %x\nout %x", payload, got)
			}
		}
		if it, err := DecodeLineItem(payload); err == nil {
			if got := EncodeLineItem(&it); !bytes.Equal(got, payload) {
				t.Fatalf("line item re-encodes to different bytes\nin  %x\nout %x", payload, got)
			}
		}
	})
}
