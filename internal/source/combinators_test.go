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

func TestScaledVoltage(t *testing.T) {
	c := &ConstantVoltage{V: 2, Rs: 10}
	s := &ScaledVoltage{Source: c, Gain: 3}
	if s.Voltage(0) != 6 {
		t.Error("gain not applied to voltage")
	}
	if s.SeriesResistance() != 90 {
		t.Error("impedance should scale by gain²")
	}
}

func TestScaledAndSumPower(t *testing.T) {
	a := &ConstantPower{P: 2}
	b := &ConstantPower{P: 3}
	if (&ScaledPower{Source: a, Gain: 0.5}).Power(0) != 1 {
		t.Error("scaled power wrong")
	}
	sum := &SumPower{Sources: []PowerSource{a, b}}
	if sum.Power(0) != 5 {
		t.Error("sum power wrong")
	}
	if (&SumPower{}).Power(0) != 0 {
		t.Error("empty sum should be 0")
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
