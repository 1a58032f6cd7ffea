package source

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSignalGeneratorDC(t *testing.T) {
	g := &SignalGenerator{Amplitude: 3.3, Frequency: 0, Rs: 50}
	for _, tt := range []float64{0, 1, 100} {
		if got := g.Voltage(tt); got != 3.3 {
			t.Errorf("DC voltage at t=%g = %g, want 3.3", tt, got)
		}
	}
	if g.SeriesResistance() != 50 {
		t.Error("series resistance mismatch")
	}
}

func TestSignalGeneratorSine(t *testing.T) {
	g := &SignalGenerator{Amplitude: 5, Frequency: 10, Offset: 1}
	// Peak at quarter period.
	if got := g.Voltage(0.025); math.Abs(got-6) > 1e-9 {
		t.Errorf("peak = %g, want 6", got)
	}
	// Zero crossing (offset only) at t=0.
	if got := g.Voltage(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("t=0 = %g, want 1", got)
	}
	// Periodicity property.
	f := func(raw float64) bool {
		tt := math.Mod(math.Abs(raw), 100)
		return math.Abs(g.Voltage(tt)-g.Voltage(tt+0.1)) < 1e-6 // period 0.1 s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindTurbineEnvelopeShape(t *testing.T) {
	w := DefaultWindTurbine()
	if got := w.Envelope(0); got != 0 {
		t.Errorf("pre-gust envelope = %g, want 0", got)
	}
	if got := w.Envelope(w.GustStart + w.GustRise + 0.1); got != 1 {
		t.Errorf("hold envelope = %g, want 1", got)
	}
	// Decay is monotonically decreasing after the hold.
	endHold := w.GustStart + w.GustRise + w.GustHold
	prev := w.Envelope(endHold)
	for dt := 0.1; dt < 3; dt += 0.1 {
		cur := w.Envelope(endHold + dt)
		if cur > prev+1e-12 {
			t.Fatalf("envelope not decaying at +%g s", dt)
		}
		prev = cur
	}
}

func TestWindTurbinePeakMatchesFig1a(t *testing.T) {
	// Fig. 1(a): roughly ±6 V peak AC over the gust.
	w := DefaultWindTurbine()
	minV, maxV := 0.0, 0.0
	for tt := 0.0; tt < 8; tt += 1e-3 {
		v := w.Voltage(tt)
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	if maxV < 5.5 || maxV > 6.0 {
		t.Errorf("max voltage %g outside [5.5, 6]", maxV)
	}
	if minV > -5.5 || minV < -6.0 {
		t.Errorf("min voltage %g outside [-6, -5.5]", minV)
	}
}

func TestWindTurbineACFrequency(t *testing.T) {
	// Count zero crossings during full-strength hold; expect ≈2 per cycle.
	w := DefaultWindTurbine()
	start, end := w.GustStart+w.GustRise, w.GustStart+w.GustRise+w.GustHold
	crossings := 0
	prev := w.Voltage(start)
	for tt := start; tt < end; tt += 1e-4 {
		cur := w.Voltage(tt)
		if prev < 0 && cur >= 0 {
			crossings++
		}
		prev = cur
	}
	expected := w.ACFrequency * (end - start)
	if math.Abs(float64(crossings)-expected) > 1.5 {
		t.Errorf("rising crossings = %d, want ≈%g", crossings, expected)
	}
}

func TestPhotovoltaicRangeMatchesFig1b(t *testing.T) {
	// Fig. 1(b): harvested current between ≈280 µA (night) and ≈430 µA (day)
	// over two days.
	p := DefaultPhotovoltaic()
	minI, maxI := math.Inf(1), math.Inf(-1)
	for tt := 0.0; tt < 2*86400; tt += 60 {
		i := p.Current(tt)
		minI = math.Min(minI, i)
		maxI = math.Max(maxI, i)
	}
	if minI < 270e-6 || minI > 290e-6 {
		t.Errorf("min current %g µA outside [270, 290]", minI*1e6)
	}
	if maxI < 420e-6 || maxI > 445e-6 {
		t.Errorf("max current %g µA outside [420, 445]", maxI*1e6)
	}
}

func TestPhotovoltaicDiurnalPattern(t *testing.T) {
	p := DefaultPhotovoltaic()
	night := p.Current(3 * 3600)   // 03:00
	midday := p.Current(13 * 3600) // 13:00
	if night >= midday {
		t.Errorf("night %g should be below midday %g", night, midday)
	}
	// Second day repeats the first (same hour → similar value).
	d1 := p.Current(13 * 3600)
	d2 := p.Current((24 + 13) * 3600)
	if math.Abs(d1-d2)/d1 > 0.06 {
		t.Errorf("daily repetition off: %g vs %g", d1, d2)
	}
	// Power view is current × OpVoltage.
	if math.Abs(p.Power(0)-p.Current(0)*p.OpVoltage) > 1e-15 {
		t.Error("Power != Current × OpVoltage")
	}
}

func TestSmoothStep(t *testing.T) {
	if smoothStep(0, 5, 2) != 0 || smoothStep(10, 5, 2) != 1 {
		t.Error("smoothStep endpoints wrong")
	}
	if got := smoothStep(5, 5, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("smoothStep midpoint = %g, want 0.5", got)
	}
	// Degenerate width behaves as a hard step.
	if smoothStep(4.9, 5, 0) != 0 || smoothStep(5, 5, 0) != 1 {
		t.Error("zero-width smoothStep should be a step")
	}
}

func TestKineticEnergyPerEvent(t *testing.T) {
	// Integral of power over one isolated event ≈ EventEnergy.
	k := &Kinetic{EventEnergy: 1e-3, EventPeriod: 10, Decay: 0.05}
	var e float64
	dt := 1e-4
	for tt := 0.0; tt < 9.0; tt += dt {
		e += k.Power(tt) * dt
	}
	if math.Abs(e-1e-3)/1e-3 > 0.05 {
		t.Errorf("event energy = %g, want ≈1e-3", e)
	}
	// Degenerate config returns zero.
	if (&Kinetic{}).Power(1) != 0 {
		t.Error("unconfigured kinetic source should output 0")
	}
}

func TestMarkovSourceDeterminism(t *testing.T) {
	mk := func() *MarkovSource {
		return &MarkovSource{OnPower: 1, OffPower: 0, SlotLen: 0.1,
			POnToOff: 0.3, POffToOn: 0.3, Seed: 42}
	}
	a, b := mk(), mk()
	for tt := 0.0; tt < 20; tt += 0.05 {
		if a.Power(tt) != b.Power(tt) {
			t.Fatalf("same seed diverged at t=%g", tt)
		}
	}
	// Both states visited over a long run.
	sawOn, sawOff := false, false
	for tt := 0.0; tt < 50; tt += 0.1 {
		if a.Power(tt) == 1 {
			sawOn = true
		} else {
			sawOff = true
		}
	}
	if !sawOn || !sawOff {
		t.Error("Markov chain never switched state")
	}
	if (&MarkovSource{OffPower: 7}).Power(1) != 7 {
		t.Error("zero slot length should return OffPower")
	}
}

func TestTraceSource(t *testing.T) {
	ts := &TraceSource{Times: []float64{0, 1, 2}, Values: []float64{0, 10, 0}}
	if got := ts.Voltage(0.5); math.Abs(got-5) > 1e-12 {
		t.Errorf("interp = %g, want 5", got)
	}
	if got := ts.Voltage(-1); got != 0 {
		t.Errorf("before start = %g, want 0 (clamp)", got)
	}
	if got := ts.Voltage(5); got != 0 {
		t.Errorf("after end = %g, want 0 (clamp)", got)
	}
	if (&TraceSource{}).Power(1) != 0 {
		t.Error("empty trace should be 0")
	}
}

func TestTraceSourceLoop(t *testing.T) {
	ts := &TraceSource{Times: []float64{0, 1, 2}, Values: []float64{0, 10, 0}, Loop: true}
	if got := ts.Voltage(2.5); math.Abs(got-5) > 1e-12 {
		t.Errorf("looped interp = %g, want 5", got)
	}
	if got := ts.Voltage(4.5); math.Abs(got-5) > 1e-12 {
		t.Errorf("second loop = %g, want 5", got)
	}
}

func TestHashUnitRange(t *testing.T) {
	f := func(n int64) bool {
		u := hashUnit(n)
		return u >= -0.5 && u < 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoadTraceCSV(t *testing.T) {
	csvData := "t,vout(V)\n0,0\n1,10\n2,0\n"
	ts, err := LoadTraceCSV(strings.NewReader(csvData), 1, false, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Voltage(0.5); math.Abs(got-5) > 1e-12 {
		t.Errorf("loaded trace interp = %g, want 5", got)
	}
	if ts.SeriesResistance() != 50 {
		t.Error("Rs not carried through")
	}
	// Headerless numeric data also loads.
	ts2, err := LoadTraceCSV(strings.NewReader("0,1\n1,2\n"), 1, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts2.Voltage(1.5) != 1.5 { // loops back to interp of 0..1
		t.Errorf("looped headerless trace = %g", ts2.Voltage(1.5))
	}
}

func TestLoadTraceCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
		col  int
	}{
		{"bad column", "t,v\n0,1\n", 0},
		{"short row", "t,v\n0\n", 1},
		{"bad time", "t,v\nxx,1\n", 1},
		{"bad value", "t,v\n0,yy\n", 1},
		{"time backwards", "t,v\n1,1\n0,2\n", 1},
		{"nan time", "t,v\n0,1\nNaN,2\n1,3\n", 1},
		{"infinite time", "t,v\n0,1\n+Inf,2\n", 1},
		{"empty", "t,v\n", 1},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := LoadTraceCSV(strings.NewReader(tt.data), tt.col, false, 0); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// Edge cases the trace-driven models lean on: header detection, ragged
// rows, degenerate sample counts, and loop wraparound.
func TestLoadTraceCSVEdgeCases(t *testing.T) {
	t.Run("numeric-looking header is data", func(t *testing.T) {
		// A header whose first cell parses as a number is indistinguishable
		// from data, so the loader reads it as data — and the non-numeric
		// value cell fails, naming line 1.
		_, err := LoadTraceCSV(strings.NewReader("0,vcc(V)\n1,2\n"), 1, false, 0)
		if err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("numeric-first-cell header: got %v, want a line 1 error", err)
		}
	})
	t.Run("trailing blank fields", func(t *testing.T) {
		ts, err := LoadTraceCSV(strings.NewReader("t,v\n0,1,\n1,3,\n"), 1, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts.Times) != 2 || ts.Values[1] != 3 {
			t.Errorf("rows with trailing blank fields: got %d samples %v", len(ts.Times), ts.Values)
		}
	})
	t.Run("single sample", func(t *testing.T) {
		ts, err := LoadTraceCSV(strings.NewReader("t,v\n2,5\n"), 1, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []float64{-1, 0, 2, 100} {
			if got := ts.Voltage(at); got != 5 {
				t.Errorf("single-sample trace at t=%g = %g, want 5", at, got)
			}
		}
		// Looping a single sample must not divide by the zero span.
		lts, err := LoadTraceCSV(strings.NewReader("2,5\n"), 1, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := lts.Power(7); got != 5 {
			t.Errorf("looped single-sample trace = %g, want 5", got)
		}
	})
	t.Run("loop wraparound", func(t *testing.T) {
		ts, err := LoadTraceCSV(strings.NewReader("t,v\n0,0\n1,10\n2,0\n"), 1, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Span is 2 s: t=2.5 wraps to 0.5 (interp 5), t=-0.5 wraps to 1.5
		// (interp 5), t=4 wraps to 0 exactly.
		for _, tc := range []struct{ at, want float64 }{
			{2.5, 5}, {-0.5, 5}, {4, 0}, {0.5, 5},
		} {
			if got := ts.Voltage(tc.at); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("looped trace at t=%g = %g, want %g", tc.at, got, tc.want)
			}
		}
	})
}

// Regression: errors used to number records, not file lines, so a CSV
// with blank lines (which encoding/csv silently skips) pointed the user
// at the wrong row of their dataset.
func TestLoadTraceCSVErrorNamesFileLine(t *testing.T) {
	// The bad value sits on file line 5; record counting would call it
	// row 2 (header) or 3 (with it counted).
	data := "t,v\n\n\n0,1\n1,oops\n"
	_, err := LoadTraceCSV(strings.NewReader(data), 1, false, 0)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 5") {
		t.Errorf("error %q should name file line 5", err)
	}
	// Same for the backwards-time check.
	_, err = LoadTraceCSV(strings.NewReader("t,v\n1,1\n\n0,2\n"), 1, false, 0)
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("backwards-time error %v should name file line 4", err)
	}
}
