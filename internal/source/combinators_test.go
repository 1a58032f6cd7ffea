package source

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHalfWaveRectifier(t *testing.T) {
	g := &SignalGenerator{Amplitude: 5, Frequency: 1, Rs: 10}
	r := HalfWave(g, 0.3)
	// Positive peak: 5 - 0.3.
	if got := r.Voltage(0.25); math.Abs(got-4.7) > 1e-9 {
		t.Errorf("positive peak = %g, want 4.7", got)
	}
	// Negative half clipped to zero.
	if got := r.Voltage(0.75); got != 0 {
		t.Errorf("negative half = %g, want 0", got)
	}
	if r.SeriesResistance() != 10 {
		t.Error("series resistance should pass through")
	}
}

func TestHalfWaveNeverNegative(t *testing.T) {
	g := &SignalGenerator{Amplitude: 6, Frequency: 4.7}
	r := HalfWave(g, 0.25)
	f := func(raw float64) bool {
		return r.Voltage(math.Mod(math.Abs(raw), 100)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGatedVoltage(t *testing.T) {
	c := &ConstantVoltage{V: 3, Rs: 1}
	g := &GatedVoltage{Source: c, Windows: [][2]float64{{0, 1}, {2, 3}}}
	cases := []struct {
		t    float64
		want float64
	}{
		{0.5, 3}, {1.5, 0}, {2.5, 3}, {3.5, 0},
	}
	for _, tt := range cases {
		if got := g.Voltage(tt.t); got != tt.want {
			t.Errorf("gated V(%g) = %g, want %g", tt.t, got, tt.want)
		}
	}
	// Inverted: windows are outages.
	gi := &GatedVoltage{Source: c, Windows: [][2]float64{{0, 1}}, Invert: true}
	if gi.Voltage(0.5) != 0 || gi.Voltage(1.5) != 3 {
		t.Error("inverted gating wrong")
	}
	if g.SeriesResistance() != 1 {
		t.Error("gated source resistance should pass through")
	}
}

func TestSquareWaveVoltage(t *testing.T) {
	s := &SquareWaveVoltage{High: 3.3, OnTime: 0.7, OffTime: 0.3, Rs: 5}
	if s.Voltage(0.1) != 3.3 || s.Voltage(0.8) != 0 {
		t.Error("square wave phases wrong")
	}
	// Next period.
	if s.Voltage(1.1) != 3.3 || s.Voltage(1.95) != 0 {
		t.Error("square wave period wrong")
	}
	if s.SeriesResistance() != 5 {
		t.Error("Rs mismatch")
	}
	// Degenerate period: always high.
	d := &SquareWaveVoltage{High: 2}
	if d.Voltage(9) != 2 {
		t.Error("zero period should stay high")
	}
}

func TestSquareWaveDutyAverage(t *testing.T) {
	s := &SquareWaveVoltage{High: 1, OnTime: 0.25, OffTime: 0.75}
	var sum float64
	n := 0
	for tt := 0.0; tt < 50; tt += 1e-3 {
		sum += s.Voltage(tt)
		n++
	}
	if avg := sum / float64(n); math.Abs(avg-0.25) > 0.01 {
		t.Errorf("duty average = %g, want 0.25", avg)
	}
}

// gateEdge decodes one fuzzed window edge: a quarter-step grid around 0
// (so windows overlap, touch and repeat), or NaN, ±Inf or -0.
func gateEdge(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.Inf(-1)
	case 0xfc:
		return math.Copysign(0, -1)
	}
	return float64(int(b)-128) / 4
}

// gateChecker returns a check that the indexed sampler and PlateauFn of
// g agree with the scanning Voltage and Plateau at t: voltages and
// plateau values bit for bit, until as a value (see gateIndex on zero
// signs).
func gateChecker(t *testing.T, g *GatedVoltage) func(at float64) {
	volt, plat := VoltageFn(g), PlateauFn(g)
	return func(at float64) {
		t.Helper()
		if got, want := volt(at), g.Voltage(at); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("windows %v invert %v, t=%v: indexed %v, scan %v", g.Windows, g.Invert, at, got, want)
		}
		gv, gu, gok := plat(at)
		wv, wu, wok := g.Plateau(at)
		if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) || !(gu == wu || gu != gu && wu != wu) {
			t.Fatalf("windows %v invert %v, t=%v: indexed plateau (%v, %v, %v), scan (%v, %v, %v)",
				g.Windows, g.Invert, at, gv, gu, gok, wv, wu, wok)
		}
	}
}

// FuzzGatedVoltage checks the indexed window lookup of VoltageFn and
// PlateauFn against the scanning Voltage and Plateau, over overlapping,
// touching, empty, NaN and ±Inf windows, at every edge, just off every
// edge, across the grid between them, and at ±Inf and NaN t.
func FuzzGatedVoltage(f *testing.F) {
	f.Add([]byte{128, 132, 130, 136, 140, 140, 150, 144}, false, true)
	f.Add([]byte{128, 132, 132, 136, 0xfd, 100, 200, 0xfe}, true, true)
	f.Add([]byte{0xff, 140, 120, 0xff, 0xfc, 128, 128, 0xfc}, false, false)
	f.Add([]byte{0, 255, 10, 20, 15, 25, 20, 30, 5}, true, false)
	f.Fuzz(func(t *testing.T, data []byte, invert, plateauInner bool) {
		var inner VoltageSource = &ConstantVoltage{V: 3.3, Rs: 10}
		if !plateauInner {
			inner = &SignalGenerator{Amplitude: 3, Frequency: 7, Rs: 10}
		}
		g := &GatedVoltage{Source: inner, Invert: invert}
		for i := 0; i+1 < len(data) && len(g.Windows) < 64; i += 2 {
			g.Windows = append(g.Windows, [2]float64{gateEdge(data[i]), gateEdge(data[i+1])})
		}
		ts := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
		for _, w := range g.Windows {
			for _, e := range w {
				ts = append(ts, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
			}
		}
		for x := -33.0; x <= 33; x += 0.125 {
			ts = append(ts, x)
		}
		check := gateChecker(t, g)
		for _, at := range ts {
			check(at)
		}
	})
}

// TestGatedVoltageIndexedRF: the rf registry supply's 3,600 windows
// looked up by index agree with the scan across the whole schedule, at
// every edge and in between.
func TestGatedVoltageIndexedRF(t *testing.T) {
	b, err := Build("rf", nil)
	if err != nil {
		t.Fatal(err)
	}
	g := b.V.(*GatedVoltage)
	if len(g.Windows) != 3600 {
		t.Fatalf("rf built %d windows, want 3600", len(g.Windows))
	}
	check := gateChecker(t, g)
	for at := -0.5; at < 3601; at += 0.25 {
		check(at)
	}
	for _, w := range g.Windows {
		for _, e := range w {
			check(e)
			check(math.Nextafter(e, 0))
		}
	}
}
