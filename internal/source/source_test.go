package source

import (
	"math"
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
