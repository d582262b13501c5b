// Package trace models the time-varying load traces that drive the
// experiments. A trace gives a target number of concurrent requests per
// second for each simulated minute, matching the horizontal/vertical axes of
// the paper's Figure 8. Four generators reproduce the four production-
// derived demand shapes the paper evaluates:
//
//	Trace 1 — steady demand (suited to a static container size),
//	Trace 2 — mostly idle with one long burst,
//	Trace 3 — mostly idle with one short burst,
//	Trace 4 — many short bursts (the online stress test).
//
// All generators are deterministic given a seed.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
)

// Trace is a per-minute target request rate.
type Trace struct {
	// Name identifies the trace, e.g. "trace2".
	Name string
	// RPS holds the target concurrent requests per second for each minute.
	RPS []float64
}

// Len returns the trace duration in minutes.
func (t *Trace) Len() int { return len(t.RPS) }

// At returns the target rate for the given minute, clamping out-of-range
// minutes to the nearest end.
func (t *Trace) At(minute int) float64 {
	if len(t.RPS) == 0 {
		return 0
	}
	if minute < 0 {
		minute = 0
	}
	if minute >= len(t.RPS) {
		minute = len(t.RPS) - 1
	}
	return t.RPS[minute]
}

// Peak returns the maximum rate in the trace.
func (t *Trace) Peak() float64 {
	var p float64
	for _, r := range t.RPS {
		if r > p {
			p = r
		}
	}
	return p
}

// Mean returns the average rate over the trace.
func (t *Trace) Mean() float64 {
	if len(t.RPS) == 0 {
		return 0
	}
	var s float64
	for _, r := range t.RPS {
		s += r
	}
	return s / float64(len(t.RPS))
}

// Scale returns a copy of the trace with every rate multiplied by f.
func (t *Trace) Scale(f float64) *Trace {
	out := &Trace{Name: t.Name, RPS: make([]float64, len(t.RPS))}
	for i, r := range t.RPS {
		out.RPS[i] = r * f
	}
	return out
}

// Decimate returns a copy keeping every factor-th minute — a time
// compression that preserves the trace's shape.
func (t *Trace) Decimate(factor int) *Trace {
	if factor < 1 {
		factor = 1
	}
	out := &Trace{Name: t.Name}
	for i := 0; i < len(t.RPS); i += factor {
		out.RPS = append(out.RPS, t.RPS[i])
	}
	return out
}

// noise returns a multiplicative jitter factor in [1-amp, 1+amp].
func noise(rng *rand.Rand, amp float64) float64 {
	return 1 + amp*(2*rng.Float64()-1)
}

// Trace1 generates the steady-demand trace: roughly constant load around
// base requests/sec with small jitter, over the given number of minutes
// (the paper uses 1440).
func Trace1(minutes int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: "trace1", RPS: make([]float64, minutes)}
	const base = 430.0
	for i := range tr.RPS {
		// Slow sinusoidal drift plus jitter; stays within one container band.
		drift := 1 + 0.05*math.Sin(2*math.Pi*float64(i)/480)
		tr.RPS[i] = base * drift * noise(rng, 0.06)
	}
	return tr
}

// Trace2 generates the long-burst trace: low activity with one sustained
// burst occupying roughly the middle third of the trace.
func Trace2(minutes int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: "trace2", RPS: make([]float64, minutes)}
	const idle, burst = 20.0, 600.0
	lo := minutes * 2 / 5
	hi := minutes * 7 / 10
	for i := range tr.RPS {
		switch {
		case i >= lo && i < hi:
			// Ramp in and out of the burst over ~5% of its width.
			ramp := 1.0
			w := (hi - lo) / 20
			if w > 0 {
				if d := i - lo; d < w {
					ramp = float64(d+1) / float64(w)
				}
				if d := hi - 1 - i; d < w {
					ramp = math.Min(ramp, float64(d+1)/float64(w))
				}
			}
			tr.RPS[i] = (idle + (burst-idle)*ramp) * noise(rng, 0.08)
		default:
			tr.RPS[i] = idle * noise(rng, 0.25)
		}
	}
	return tr
}

// Trace3 generates the short-burst trace: low activity with one brief,
// intense burst (~8% of the trace length).
func Trace3(minutes int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: "trace3", RPS: make([]float64, minutes)}
	const idle, burst = 20.0, 720.0
	lo := minutes * 55 / 100
	hi := lo + minutes*8/100
	for i := range tr.RPS {
		if i >= lo && i < hi {
			tr.RPS[i] = burst * noise(rng, 0.08)
		} else {
			tr.RPS[i] = idle * noise(rng, 0.25)
		}
	}
	return tr
}

// Trace4 generates the spiky trace: frequent short bursts of varying height
// and width over a low baseline — the stress test for online auto-scaling.
func Trace4(minutes int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: "trace4", RPS: make([]float64, minutes)}
	const idle = 30.0
	for i := range tr.RPS {
		tr.RPS[i] = idle * noise(rng, 0.25)
	}
	// Bursts arrive with a mean gap of ~70 minutes, widths 8–35 minutes,
	// heights 240–800 rps.
	for i := 20; i < minutes; {
		gap := 40 + rng.Intn(60)
		i += gap
		if i >= minutes {
			break
		}
		width := 8 + rng.Intn(28)
		height := 240 + rng.Float64()*560
		for j := i; j < i+width && j < minutes; j++ {
			ramp := math.Min(1, float64(j-i+1)/3) // bursts ramp up over ~3 minutes
			tr.RPS[j] = height * ramp * noise(rng, 0.1)
		}
		i += width
	}
	return tr
}

// Diurnal generates a day/night load pattern: quiet nights, a smooth climb
// through business hours peaking early afternoon, repeating daily. The
// scenario scheduled (time-of-day) scaling policies are designed for.
func Diurnal(minutes int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: "diurnal", RPS: make([]float64, minutes)}
	const night, peak = 40.0, 520.0
	for i := range tr.RPS {
		m := i % 1440
		// Business-hours hump between 08:00 and 20:00.
		level := night
		if m >= 8*60 && m < 20*60 {
			phase := float64(m-8*60) / float64(12*60) // 0..1 across the day
			level = night + (peak-night)*math.Sin(math.Pi*phase)
		}
		tr.RPS[i] = level * noise(rng, 0.08)
	}
	return tr
}

// Standard returns the four standard traces with the durations used by the
// experiments (time-compressed per Section 7.1).
func Standard(seed int64) []*Trace {
	return []*Trace{
		Trace1(1440, seed),
		Trace2(900, seed+1),
		Trace3(700, seed+2),
		Trace4(1440, seed+3),
	}
}

// ByName generates one of the standard traces ("trace1".."trace4").
func ByName(name string, seed int64) (*Trace, error) {
	switch name {
	case "trace1":
		return Trace1(1440, seed), nil
	case "trace2":
		return Trace2(900, seed), nil
	case "trace3":
		return Trace3(700, seed), nil
	case "trace4":
		return Trace4(1440, seed), nil
	default:
		return nil, fmt.Errorf("trace: unknown trace %q", name)
	}
}

// WriteCSV writes the trace as `minute,rps` rows with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"minute", "rps"}); err != nil {
		return err
	}
	for i, r := range t.RPS {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.FormatFloat(r, 'f', 3, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
