// Package source models the energy-harvesting supplies the paper's systems
// operate from: micro wind turbines, indoor photovoltaic cells, RF bursts
// and the laboratory signal generator used to validate hibernus
// (DC–20 Hz). Sources are pure functions of simulated time so that
// experiments are deterministic and replayable.
//
// Two source abstractions are provided, mirroring how real harvesters are
// attached to loads:
//
//   - VoltageSource: an open-circuit voltage waveform V_oc(t) plus a series
//     (Thevenin) resistance. Wind turbines and signal generators are voltage
//     sources; the circuit layer computes the current actually delivered
//     into the storage node.
//   - PowerSource: an available-power waveform P_h(t), as produced by a
//     harvester behind an MPPT converter (the indoor PV cell of Fig. 1(b)
//     is characterised this way in the paper).
//
// The Rectified and GatedVoltage combinators compose sources.
package source

import "math"

// VoltageSource is a supply characterised by its open-circuit voltage over
// time and a constant series resistance.
type VoltageSource interface {
	// Voltage returns the open-circuit output voltage at time t (seconds).
	Voltage(t float64) float64
	// SeriesResistance returns the Thevenin source resistance in ohms.
	SeriesResistance() float64
}

// PowerSource is a supply characterised by the power available for harvest
// at time t, e.g. the output of an MPPT stage.
type PowerSource interface {
	// Power returns the available harvested power in watts at time t.
	Power(t float64) float64
}

// PlateauVoltage is an optional VoltageSource extension for supplies that
// are piecewise constant. Plateau returns the output voltage at time t and
// the end of the constant stretch containing t, so analytic steppers can
// substitute v for per-sample Voltage calls across the whole stretch.
//
// The contract is exact: Voltage(u) must equal v bit-for-bit for every u
// in [t, until). until itself is accurate only to floating-point rounding
// of the implementation's arithmetic, so callers must leave a safety
// margin (at least one sampling step) before it rather than sampling
// right up to the boundary. A source whose output is not genuinely
// constant around t returns ok=false for that instant; a source that can
// never make the guarantee must not implement the interface.
type PlateauVoltage interface {
	VoltageSource
	Plateau(t float64) (v, until float64, ok bool)
}

// SignalGenerator is the controlled laboratory source used to validate
// hibernus: a sine (optionally offset) between DC and tens of Hz. At
// Frequency == 0 it produces a DC level equal to Amplitude + Offset.
type SignalGenerator struct {
	Amplitude float64 // peak amplitude in volts
	Frequency float64 // Hz; 0 means DC
	Offset    float64 // DC offset in volts
	Phase     float64 // radians
	Rs        float64 // series resistance in ohms
}

// Voltage implements VoltageSource.
func (g *SignalGenerator) Voltage(t float64) float64 {
	if g.Frequency == 0 {
		return g.Amplitude + g.Offset
	}
	return g.Offset + g.Amplitude*math.Sin(2*math.Pi*g.Frequency*t+g.Phase)
}

// SeriesResistance implements VoltageSource.
func (g *SignalGenerator) SeriesResistance() float64 { return g.Rs }

// WindTurbine models a micro wind turbine producing an AC voltage whose
// envelope follows wind gusts, as in Fig. 1(a): during a gust the output is
// a several-Hz AC waveform with a peak of a few volts that grows and decays
// with the gust envelope.
type WindTurbine struct {
	PeakVoltage float64 // envelope peak in volts (≈6 V in Fig. 1(a))
	ACFrequency float64 // electrical frequency in Hz (many Hz per the paper)
	GustStart   float64 // gust onset time in seconds
	GustRise    float64 // envelope rise time constant in seconds
	GustFall    float64 // envelope decay time constant in seconds
	GustHold    float64 // duration at full strength in seconds
	Rs          float64 // series resistance in ohms
}

// DefaultWindTurbine returns parameters matching Fig. 1(a): a single gust
// over roughly 8 s, ±6 V peak, AC at a handful of hertz.
func DefaultWindTurbine() *WindTurbine {
	return &WindTurbine{
		PeakVoltage: 6.0,
		ACFrequency: 4.7,
		GustStart:   0.5,
		GustRise:    0.8,
		GustHold:    3.0,
		GustFall:    1.5,
		Rs:          90,
	}
}

// Envelope returns the gust envelope (0..1) at time t.
func (w *WindTurbine) Envelope(t float64) float64 {
	switch {
	case t < w.GustStart:
		return 0
	case t < w.GustStart+w.GustRise:
		// Smooth (raised-cosine) rise.
		x := (t - w.GustStart) / w.GustRise
		return 0.5 - 0.5*math.Cos(math.Pi*x)
	case t < w.GustStart+w.GustRise+w.GustHold:
		return 1
	default:
		dt := t - (w.GustStart + w.GustRise + w.GustHold)
		return math.Exp(-dt / w.GustFall)
	}
}

// Voltage implements VoltageSource: AC carrier scaled by the gust envelope.
func (w *WindTurbine) Voltage(t float64) float64 {
	return w.PeakVoltage * w.Envelope(t) * math.Sin(2*math.Pi*w.ACFrequency*t)
}

// SeriesResistance implements VoltageSource.
func (w *WindTurbine) SeriesResistance() float64 { return w.Rs }

// Photovoltaic models an indoor PV cell's harvested power over the day, as
// in Fig. 1(b): a baseline harvest (always-on ambient lighting) with a
// raised daytime plateau, smooth dawn/dusk transitions, and small
// deterministic flicker. The paper's Fig. 1(b) reports harvested current at
// a fixed operating voltage; Current() exposes that view directly.
type Photovoltaic struct {
	BaseCurrent float64 // overnight harvested current in amperes (≈280 µA)
	PeakCurrent float64 // midday harvested current in amperes (≈430 µA)
	OpVoltage   float64 // operating voltage used to convert current→power
	DawnHour    float64 // local hour lights/sun come up (0–24)
	DuskHour    float64 // local hour harvest decays (0–24)
	EdgeHours   float64 // width of the dawn/dusk transition in hours
	Flicker     float64 // relative amplitude of slow deterministic ripple
}

// DefaultPhotovoltaic returns parameters matching Fig. 1(b): 280–430 µA
// over a two-day window with dawn ≈07:00 and dusk ≈19:00.
func DefaultPhotovoltaic() *Photovoltaic {
	return &Photovoltaic{
		BaseCurrent: 280e-6,
		PeakCurrent: 430e-6,
		OpVoltage:   2.5,
		DawnHour:    7,
		DuskHour:    19,
		EdgeHours:   1.5,
		Flicker:     0.02,
	}
}

// Current returns the harvested current in amperes at time t seconds from
// local midnight of day zero.
func (p *Photovoltaic) Current(t float64) float64 {
	hour := t / 3600.0
	// math.Mod(hour, 24) is hour itself on [0, 24); other hours are
	// reduced by hourOfDay.
	if !(hour >= 0 && hour < 24) {
		hour = hourOfDay(hour)
	}
	day := smoothStep(hour, p.DawnHour, p.EdgeHours) *
		(1 - smoothStep(hour, p.DuskHour, p.EdgeHours))
	i := p.BaseCurrent + (p.PeakCurrent-p.BaseCurrent)*day
	// At night (day == 0) the ripple factor is 1 + Flicker·r·0, exactly 1
	// whenever Flicker·r is finite, so the two sines can be skipped. That
	// holds when both sine arguments are finite (|r| ≤ 1) and Flicker is
	// far from overflow; anything else keeps the full expression, whose
	// NaN the skip would hide.
	night := day == 0 && p.Flicker <= flickerSkipMax && math.Abs(t) <= flickerSkipMax
	if p.Flicker > 0 && !night {
		// Slow deterministic ripple (occupancy/cloud proxy): two
		// incommensurate sinusoids.
		r := math.Sin(2*math.Pi*t/1700) * math.Sin(2*math.Pi*t/4100)
		i *= 1 + p.Flicker*r*day
	}
	return i
}

// hourOfDay returns math.Mod(h, 24) wrapped into [0, 24), bit for bit.
//
// math.Mod is exact but is a software shift-subtract loop, a large
// share of a multi-day PV run. On [24, 2⁴⁸) the remainder is computed
// as h − 24·⌊h/24⌋ instead, and it is exact there.
//
// Proof obligation: let n be the real ⌊h/24⌋, so 1 ≤ n < 2⁴⁴ and
// 24n ≤ h < 24(n + 1); math.Mod yields h − 24n.
//   - ⌊fl(h/24)⌋ = n. Rounding is monotone and n is a float, so
//     fl(h/24) ≥ n. With 2ᵉ ≤ n + 1 < 2ᵉ⁺¹ the float below n + 1 is at
//     most 2ᵉ⁻⁵² under it, so h/24 could round up to n + 1 only with
//     h within 12·2ᵉ⁻⁵² = 0.75·2ᵉ⁻⁴⁸ of 24(n + 1). That is a float in
//     [1.5·2ᵉ⁺⁴, 3·2ᵉ⁺⁴) and, divisible by 3, not a power of two, so
//     the next float h below it is a full ulp ≥ 2ᵉ⁻⁴⁸ away.
//   - 24n < 2⁴⁹ is an exact product, so a fused multiply-subtract sees
//     the same operands as the separate operations.
//   - Sterbenz: x − y is exact when y/2 ≤ x ≤ 2y, and with y = 24n,
//     n ≥ 1, every h ∈ [24n, 24n + 24) qualifies. So the result is
//     h − 24n exactly, in [0, 24).
//
// Negative, huge and non-finite hours keep math.Mod.
func hourOfDay(h float64) float64 {
	if h >= 24 && h < 0x1p48 {
		return h - 24*math.Floor(h/24)
	}
	r := math.Mod(h, 24)
	if r < 0 {
		r += 24
	}
	return r
}

// flickerSkipMax bounds t and Flicker for the night-time flicker skip:
// far below where 2π·t/1700 overflows (|t| ≈ 2.8e307) or Flicker·r could.
const flickerSkipMax = 1e300

// Power implements PowerSource as Current × OpVoltage.
func (p *Photovoltaic) Power(t float64) float64 {
	return p.Current(t) * p.OpVoltage
}

// smoothStep ramps 0→1 around center over width hours (raised cosine).
func smoothStep(x, center, width float64) float64 {
	if width <= 0 {
		if x >= center {
			return 1
		}
		return 0
	}
	lo, hi := center-width/2, center+width/2
	switch {
	case x <= lo:
		return 0
	case x >= hi:
		return 1
	default:
		u := (x - lo) / width
		return 0.5 - 0.5*math.Cos(math.Pi*u)
	}
}
