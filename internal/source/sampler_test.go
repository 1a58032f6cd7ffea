package source

import (
	"math"
	"testing"
)

// samplerTimes is a dense, irregular probe grid covering sub-cycle,
// multi-cycle, day-scale and negative times.
func samplerTimes() []float64 {
	ts := []float64{-1.5, -1e-6, 0, 1e-7, 5e-6, 1.0 / 3, 0.4999, 0.5, 1.7, 12.34, 3600.5, 86400 * 1.25}
	for i := 0; i < 500; i++ {
		ts = append(ts, float64(i)*0.0137)
	}
	return ts
}

// TestSamplersMatchRegistry pins the sampler contract for every
// registered supply at its default parameters: VoltageFn/PowerFn must
// return bit-identical values to the interface methods at every probed
// time.
func TestSamplersMatchRegistry(t *testing.T) {
	for _, name := range Names() {
		b, err := Build(name, nil)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		if b.V != nil {
			assertVoltageFn(t, name, b.V)
		}
		if b.P != nil {
			assertPowerFn(t, name, b.P)
		}
	}
}

// TestSamplersMatchCombinators covers the wrapper compositions the
// registry does not reach directly.
func TestSamplersMatchCombinators(t *testing.T) {
	gen := &SignalGenerator{Amplitude: 3.3, Frequency: 17, Offset: 0.2, Phase: 0.6, Rs: 120}
	dc := &SignalGenerator{Amplitude: 2.0, Rs: 50} // Frequency 0: DC path
	for name, vs := range map[string]VoltageSource{
		"halfwave":     HalfWave(gen, 0.2),
		"dc":           dc,
		"gated":        &GatedVoltage{Source: gen, Windows: [][2]float64{{0.5, 1.5}, {3, 4}}},
		"gated-invert": &GatedVoltage{Source: gen, Windows: [][2]float64{{1, 2}}, Invert: true},
		"square-degen": &SquareWaveVoltage{High: 2.5}, // zero period: constant
		"nested":       HalfWave(&GatedVoltage{Source: gen, Windows: [][2]float64{{0.5, 1.5}}}, 0.25),
	} {
		assertVoltageFn(t, name, vs)
	}
}

func assertVoltageFn(t *testing.T, name string, vs VoltageSource) {
	t.Helper()
	fn := VoltageFn(vs)
	for _, tt := range samplerTimes() {
		want, got := vs.Voltage(tt), fn(tt)
		if want != got && !(math.IsNaN(want) && math.IsNaN(got)) {
			t.Fatalf("%s: VoltageFn(%g) = %v, Voltage = %v", name, tt, got, want)
		}
	}
}

func assertPowerFn(t *testing.T, name string, ps PowerSource) {
	t.Helper()
	fn := PowerFn(ps)
	for _, tt := range samplerTimes() {
		want, got := ps.Power(tt), fn(tt)
		if want != got && !(math.IsNaN(want) && math.IsNaN(got)) {
			t.Fatalf("%s: PowerFn(%g) = %v, Power = %v", name, tt, got, want)
		}
	}
}
