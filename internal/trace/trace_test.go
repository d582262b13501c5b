package trace

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

func TestTrace1Steady(t *testing.T) {
	tr := Trace1(1440, 1)
	if tr.Len() != 1440 {
		t.Fatalf("len = %d", tr.Len())
	}
	mean := tr.Mean()
	if mean < 320 || mean > 480 {
		t.Errorf("trace1 mean = %v, want ≈400", mean)
	}
	// Steady: peak should be within ~30% of the mean.
	if tr.Peak() > mean*1.3 {
		t.Errorf("trace1 peak %v too far above mean %v for a steady trace", tr.Peak(), mean)
	}
}

func TestTrace2LongBurst(t *testing.T) {
	tr := Trace2(900, 1)
	if tr.Len() != 900 {
		t.Fatalf("len = %d", tr.Len())
	}
	// Mostly idle: the median minute is far below the peak.
	var lowCount int
	for _, r := range tr.RPS {
		if r < 40 {
			lowCount++
		}
	}
	if frac := float64(lowCount) / float64(tr.Len()); frac < 0.6 {
		t.Errorf("trace2 idle fraction = %v, want > 0.6", frac)
	}
	if tr.Peak() < 400 {
		t.Errorf("trace2 peak = %v, want a substantial burst", tr.Peak())
	}
	// Burst is sustained: count of high minutes is a sizable fraction.
	var high int
	for _, r := range tr.RPS {
		if r > 400 {
			high++
		}
	}
	if high < 200 {
		t.Errorf("trace2 high minutes = %d, want a long burst (>200)", high)
	}
}

func TestTrace3ShortBurst(t *testing.T) {
	tr := Trace3(700, 1)
	var high int
	for _, r := range tr.RPS {
		if r > 400 {
			high++
		}
	}
	if high == 0 || high > 100 {
		t.Errorf("trace3 high minutes = %d, want a short burst (0 < n ≤ 100)", high)
	}
	if tr.Peak() < 600 {
		t.Errorf("trace3 peak = %v, want an intense burst", tr.Peak())
	}
}

func TestTrace4ManyBursts(t *testing.T) {
	tr := Trace4(1440, 1)
	// Count distinct burst episodes: transitions from low to high.
	bursts := 0
	inBurst := false
	for _, r := range tr.RPS {
		if r > 100 && !inBurst {
			bursts++
			inBurst = true
		} else if r <= 100 {
			inBurst = false
		}
	}
	if bursts < 5 {
		t.Errorf("trace4 bursts = %d, want many (≥5)", bursts)
	}
}

func TestTraceDeterminism(t *testing.T) {
	a := Trace4(1440, 42)
	b := Trace4(1440, 42)
	for i := range a.RPS {
		if a.RPS[i] != b.RPS[i] {
			t.Fatalf("trace4 not deterministic at minute %d", i)
		}
	}
	c := Trace4(1440, 43)
	same := true
	for i := range a.RPS {
		if a.RPS[i] != c.RPS[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestAtClamping(t *testing.T) {
	tr := &Trace{Name: "x", RPS: []float64{1, 2, 3}}
	if got := tr.At(-1); got != 1 {
		t.Errorf("At(-1) = %v", got)
	}
	if got := tr.At(5); got != 3 {
		t.Errorf("At(5) = %v", got)
	}
	empty := &Trace{}
	if got := empty.At(0); got != 0 {
		t.Errorf("empty At = %v", got)
	}
}

func TestScale(t *testing.T) {
	tr := &Trace{Name: "x", RPS: []float64{1, 2, 3, 4}}
	s := tr.Scale(2)
	if s.RPS[3] != 8 {
		t.Errorf("Scale = %v", s.RPS)
	}
	if tr.RPS[3] != 4 {
		t.Error("Scale mutated original")
	}
}

func TestDecimate(t *testing.T) {
	tr := &Trace{Name: "x", RPS: []float64{1, 2, 3, 4, 5, 6, 7}}
	d := tr.Decimate(3)
	want := []float64{1, 4, 7}
	if d.Len() != len(want) {
		t.Fatalf("decimated len = %d", d.Len())
	}
	for i, w := range want {
		if d.RPS[i] != w {
			t.Fatalf("decimated = %v, want %v", d.RPS, want)
		}
	}
	if got := tr.Decimate(0); got.Len() != tr.Len() {
		t.Errorf("factor<1 should keep every sample: %d", got.Len())
	}
	// Decimation preserves burst shape where truncation would not: the
	// trace2 burst must survive a 4x compression.
	burst := Trace2(900, 1).Decimate(4)
	if burst.Peak() < 400 {
		t.Errorf("decimated trace2 lost its burst: peak %v", burst.Peak())
	}
}

func TestStandardAndByName(t *testing.T) {
	std := Standard(7)
	if len(std) != 4 {
		t.Fatalf("Standard returned %d traces", len(std))
	}
	wantLens := []int{1440, 900, 700, 1440}
	for i, tr := range std {
		if tr.Len() != wantLens[i] {
			t.Errorf("standard trace %d len = %d, want %d", i+1, tr.Len(), wantLens[i])
		}
	}
	for _, name := range []string{"trace1", "trace2", "trace3", "trace4"} {
		tr, err := ByName(name, 1)
		if err != nil || tr.Name != name {
			t.Errorf("ByName(%s) = %v, %v", name, tr, err)
		}
	}
	if _, err := ByName("bogus", 1); err == nil {
		t.Error("ByName(bogus) should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Trace3(700, 9)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != tr.Len()+1 || rows[0][0] != "minute" || rows[0][1] != "rps" {
		t.Fatalf("got %d rows headed %v, want a minute,rps header and %d rows", len(rows), rows[0], tr.Len())
	}
	for i, r := range tr.RPS {
		row := rows[i+1]
		if row[0] != strconv.Itoa(i) {
			t.Fatalf("row %d: minute %q", i, row[0])
		}
		got, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		// WriteCSV rounds to 3 decimals.
		if diff := got - r; diff > 0.001 || diff < -0.001 {
			t.Fatalf("minute %d: %v vs %v", i, got, r)
		}
	}
}

func TestDiurnal(t *testing.T) {
	tr := Diurnal(2880, 3) // two days
	if tr.Len() != 2880 {
		t.Fatalf("len = %d", tr.Len())
	}
	// Night quiet, midday busy, and the pattern repeats across days.
	night, noon := tr.RPS[3*60], tr.RPS[14*60]
	if noon < 6*night {
		t.Errorf("midday %v should dwarf night %v", noon, night)
	}
	day2noon := tr.RPS[1440+14*60]
	if day2noon < 0.7*noon || day2noon > 1.3*noon {
		t.Errorf("pattern should repeat daily: %v vs %v", day2noon, noon)
	}
}
