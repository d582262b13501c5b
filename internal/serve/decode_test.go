package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// telemetryRequest is the ingest body as encoding/json sees it: a single
// snapshot, a batch, or both. It is the oracle the decoder is held to.
type telemetryRequest struct {
	wireSnapshot
	Batch []wireSnapshot `json:"batch,omitempty"`
}

// decodeWithJSON decodes body the way the daemon did before it had its own
// decoder — json.Decoder with DisallowUnknownFields, then the wire
// contract's flattening — and returns the items decodeBody must produce.
func decodeWithJSON(body []byte) ([]ingestItem, error) {
	var req telemetryRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	var items []ingestItem
	add := func(ws wireSnapshot) {
		it := ingestItem{seq: ws.Snapshot.Interval, snap: ws.Snapshot}
		if ws.Seq != nil {
			it.seq = *ws.Seq
		}
		items = append(items, it)
	}
	if req.Seq != nil || req.Snapshot != (telemetry.Snapshot{}) {
		add(req.wireSnapshot)
	}
	for _, ws := range req.Batch {
		add(ws)
	}
	return items, nil
}

// decodeItems runs the decoder under test on body; the items are copied
// out before the decoder goes back to the pool.
func decodeItems(body []byte) ([]ingestItem, error) {
	d, items, err := decodeBody(bytes.NewReader(body))
	defer d.release()
	return append([]ingestItem(nil), items...), err
}

// formatItems renders items for comparison: %v prints every float so that
// it parses back to the same bits (-0 included), and %q every string.
func formatItems(items []ingestItem) string {
	var b strings.Builder
	for _, it := range items {
		s := it.snap
		fmt.Fprintf(&b, "seq=%d interval=%d container=%q step=%d cost=%v util=%v peak=%v wait=%v rest=%v\n",
			it.seq, s.Interval, s.Container, s.Step, s.Cost,
			[resource.NumKinds]float64(s.Utilization), [resource.NumKinds]float64(s.UtilizationPeak), s.WaitMs,
			[]float64{s.AvgLatencyMs, s.P95LatencyMs, s.Transactions, s.OfferedRPS, s.MemoryUsedMB, s.PhysicalReads, s.PhysicalWrites})
	}
	return b.String()
}

// checkAgainstJSON fails t unless the decoder and encoding/json agree on
// body: both accept with identical items, or both refuse.
func checkAgainstJSON(t *testing.T, body []byte) (items []ingestItem, accepted bool) {
	t.Helper()
	want, werr := decodeWithJSON(body)
	got, gerr := decodeItems(body)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("body %q: encoding/json error %v, decoder error %v", body, werr, gerr)
	}
	if g, w := formatItems(got), formatItems(want); g != w {
		t.Fatalf("body %q: items differ\ndecoder:\n%s\nencoding/json:\n%s", body, g, w)
	}
	return got, gerr == nil
}

// decodeTraps are the corners where encoding/json's behaviour is not the
// obvious one. Each body states whether it is accepted and, if so, the
// sequence numbers it yields; every case is also checked against
// encoding/json itself.
var decodeTraps = []struct {
	name string
	body string
	seqs []int // nil: refused
	// check, when set, inspects the accepted items further.
	check func([]ingestItem) bool
}{
	{"plain single", `{"seq":3,"snapshot":{"Interval":5,"Container":"C2"}}`, []int{3}, nil},
	{"seq defaults to interval", `{"snapshot":{"Interval":5}}`, []int{5}, nil},
	{"batch after single", `{"batch":[{"seq":7}],"seq":6}`, []int{6, 7}, nil},
	{"empty object", `{}`, []int{}, nil},
	{"upper-case key", `{"SEQ":1,"snapshot":{"INTERVAL":2}}`, []int{1}, nil},
	{"lower-case field", `{"snapshot":{"interval":4,"container":"B1"}}`, []int{4},
		func(it []ingestItem) bool { return it[0].snap.Container == "B1" }},
	{"long s folds to S", "{\"\u017feq\":8}", []int{8}, nil},
	{"kelvin sign folds to K", "{\"snapshot\":{\"UtilizationPea\u212a\":[1]}}", []int{0},
		func(it []ingestItem) bool { return it[0].snap.UtilizationPeak[0] == 1 }},
	{"escaped key", `{"\u0073eq":9}`, []int{9}, nil},
	{"dotless i does not fold", "{\"snapshot\":{\"\u0131nterval\":1}}", nil, nil},
	{"duplicate key last wins", `{"seq":1,"seq":2}`, []int{2}, nil},
	{"duplicate object merges", `{"snapshot":{"Cost":1},"snapshot":{"Step":2}}`, []int{0},
		func(it []ingestItem) bool { return it[0].snap.Cost == 1 && it[0].snap.Step == 2 }},
	{"duplicate batch merges elements", `{"batch":[{"seq":1,"snapshot":{"Cost":1}}],"batch":[{"snapshot":{"Step":2}}]}`, []int{1},
		func(it []ingestItem) bool { return it[0].snap.Cost == 1 && it[0].snap.Step == 2 }},
	{"shorter batch keeps stale tail", `{"batch":[{"seq":1},{"seq":2}],"batch":[{"seq":3}],"batch":[{},{}]}`, []int{3, 2}, nil},
	{"empty batch drops the tail", `{"batch":[{"seq":1},{"seq":2}],"batch":[],"batch":[{},{}]}`, []int{0, 0}, nil},
	{"null batch drops the tail", `{"batch":[{"seq":1},{"seq":2}],"batch":null,"batch":[{},{}]}`, []int{0, 0}, nil},
	{"null seq is absent", `{"seq":5,"seq":null,"snapshot":{"Interval":7}}`, []int{7}, nil},
	{"null fields are no-ops", `{"snapshot":{"Cost":3,"Cost":null,"Container":null,"WaitMs":null}}`, []int{0},
		func(it []ingestItem) bool { return it[0].snap.Cost == 3 }},
	{"null snapshot", `{"seq":2,"snapshot":null}`, []int{2}, nil},
	{"null body", `null`, []int{}, nil},
	{"null element is a zero item", `{"batch":[null]}`, []int{0}, nil},
	{"short array zero-fills", `{"snapshot":{"Utilization":[1,2,3,4],"Utilization":[5]}}`, []int{0},
		func(it []ingestItem) bool { u := it[0].snap.Utilization; return u[0] == 5 && u[1] == 0 && u[3] == 0 }},
	{"surplus elements of any type", `{"snapshot":{"Utilization":[1,2,3,4,"x",{},[null,true,false,{"a":[]}]]}}`, []int{0}, nil},
	{"surplus wait classes", `{"snapshot":{"WaitMs":[1,2,3,4,5,6,7,8]}}`, []int{0}, nil},
	{"trailing bytes ignored", `{"seq":1} {"seq":2} garbage`, []int{1}, nil},
	{"leading whitespace", " \t\r\n{\"seq\":1}", []int{1}, nil},
	{"int rejects exponent", `{"seq":1e2}`, nil, nil},
	{"int rejects fraction", `{"snapshot":{"Step":1.0}}`, nil, nil},
	{"int rejects overflow", `{"seq":9223372036854775808}`, nil, nil},
	{"float rejects out of range", `{"snapshot":{"Cost":1e400}}`, nil, nil},
	{"float underflows to zero", `{"snapshot":{"Cost":1e-400,"Step":1}}`, []int{0}, nil},
	{"minus zero int", `{"seq":-0}`, []int{0}, nil},
	{"minus zero float", `{"snapshot":{"Cost":-0.0}}`, []int{}, nil},
	{"negative seq decodes", `{"seq":-4}`, []int{-4}, nil},
	{"invalid utf-8 becomes U+FFFD", "{\"snapshot\":{\"Container\":\"a\xffb\"}}", []int{0},
		func(it []ingestItem) bool { return it[0].snap.Container == "a\uFFFDb" }},
	{"lone surrogate becomes U+FFFD", `{"snapshot":{"Container":"\ud800A\udc00\ud800A"}}`, []int{0},
		func(it []ingestItem) bool { return it[0].snap.Container == "\uFFFDA\uFFFD\uFFFDA" }},
	{"surrogate pair", `{"snapshot":{"Container":"\ud83d\ude00\n\/"}}`, []int{0},
		func(it []ingestItem) bool { return it[0].snap.Container == "\U0001F600\n/" }},
	{"unknown top-level field", `{"seq":1,"tenant":"x"}`, nil, nil},
	{"unknown snapshot field", `{"snapshot":{"Cpu":1}}`, nil, nil},
	{"batch inside batch", `{"batch":[{"batch":[]}]}`, nil, nil},
	{"string for a number", `{"seq":"1"}`, nil, nil},
	{"number for a string", `{"snapshot":{"Container":2}}`, nil, nil},
	{"object for an array", `{"snapshot":{"WaitMs":{}}}`, nil, nil},
	{"bool element", `{"snapshot":{"Utilization":[true]}}`, nil, nil},
	{"array body", `[]`, nil, nil},
	{"number body", `1`, nil, nil},
	{"empty body", ``, nil, nil},
	{"trailing comma", `{"seq":1,}`, nil, nil},
	{"leading zero", `{"seq":01}`, nil, nil},
	{"control character in string", "{\"snapshot\":{\"Container\":\"a\tb\"}}", nil, nil},
	{"single-quote escape", `{"snapshot":{"Container":"\'"}}`, nil, nil},
	{"truncated", `{"batch":[{"seq":1}`, nil, nil},
	{"nesting at the limit", `{"snapshot":{"Step":1,"WaitMs":[0,0,0,0,0,0,0,` + strings.Repeat("[", maxDepth-3) + strings.Repeat("]", maxDepth-3) + `]}}`, []int{0}, nil},
	{"nesting past the limit", `{"snapshot":{"WaitMs":[0,0,0,0,0,0,0,` + strings.Repeat("[", maxDepth-2) + strings.Repeat("]", maxDepth-2) + `]}}`, nil, nil},
}

func TestDecodeTelemetryTraps(t *testing.T) {
	for _, tc := range decodeTraps {
		t.Run(tc.name, func(t *testing.T) {
			items, ok := checkAgainstJSON(t, []byte(tc.body))
			if ok != (tc.seqs != nil) {
				t.Fatalf("accepted = %v, want %v", ok, tc.seqs != nil)
			}
			seqs := []int{}
			for _, it := range items {
				seqs = append(seqs, it.seq)
			}
			if ok && fmt.Sprint(seqs) != fmt.Sprint(tc.seqs) {
				t.Fatalf("seqs %v, want %v", seqs, tc.seqs)
			}
			if ok && tc.check != nil && !tc.check(items) {
				t.Fatalf("items %s", formatItems(items))
			}
		})
	}
}

// batchBody encodes n consecutive snapshots as one batch body, shaped as
// the load generators send them.
func batchBody(t testing.TB, from, n int) []byte {
	b := []byte(`{"batch":[`)
	for i := from; i < from+n; i++ {
		if i > from {
			b = append(b, ',')
		}
		b = append(b, `{"seq":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"snapshot":`...)
		snap, err := json.Marshal(snapFor(i))
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, snap...), '}')
	}
	return append(b, `]}`...)
}

func TestDecodeTelemetryMatchesJSONOnBatches(t *testing.T) {
	for _, n := range []int{1, 2, 17, 500} {
		items, ok := checkAgainstJSON(t, batchBody(t, 3, n))
		if !ok || len(items) != n || items[n-1].seq != 3+n-1 {
			t.Fatalf("n=%d: accepted=%v, %d items", n, ok, len(items))
		}
	}
}

// TestDecodeTelemetryAllocs counts what a warm decoder allocates: nothing
// per snapshot, and no Container string when it repeats the last one.
// Skipped under -race, where sync.Pool drops items at random.
func TestDecodeTelemetryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	single, err := json.Marshal(wireSnapshot{Snapshot: snapFor(4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body []byte
		max  float64
	}{
		{"500 snapshots", batchBody(t, 0, 500), 8},
		{"one snapshot", single, 4},
	} {
		rd := bytes.NewReader(tc.body)
		run := func() {
			rd.Reset(tc.body)
			d, items, err := decodeBody(rd)
			if err != nil || len(items) == 0 {
				t.Fatalf("%s: %d items, %v", tc.name, len(items), err)
			}
			d.release()
		}
		run() // warm the pool
		if got := testing.AllocsPerRun(50, run); got > tc.max {
			t.Errorf("%s: %.1f allocations per decode, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

func FuzzDecodeTelemetry(f *testing.F) {
	for _, tc := range decodeTraps {
		if len(tc.body) < 1024 {
			f.Add([]byte(tc.body))
		}
	}
	f.Add(batchBody(f, 0, 3))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxBodyBytes {
			t.Skip("over the body limit, where the decoder refuses by design")
		}
		checkAgainstJSON(t, body)
	})
}
