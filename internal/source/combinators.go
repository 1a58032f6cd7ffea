package source

import (
	"math"
	"slices"
)

// Rectified wraps a VoltageSource with an ideal half-wave rectifier:
// negative half-cycles clipped to zero, minus a forward diode drop. This
// is the "half-wave rectified sine-wave voltage" supply of the paper's
// Figs. 7 and 8.
type Rectified struct {
	Source VoltageSource
	DiodeV float64 // forward diode drop, volts
}

// HalfWave returns a half-wave rectified view of src with the given diode
// drop.
func HalfWave(src VoltageSource, diodeV float64) *Rectified {
	return &Rectified{Source: src, DiodeV: diodeV}
}

// Voltage implements VoltageSource.
func (r *Rectified) Voltage(t float64) float64 {
	v := r.Source.Voltage(t) - r.DiodeV
	if v < 0 {
		return 0
	}
	return v
}

// SeriesResistance implements VoltageSource, passing through the wrapped
// source's resistance.
func (r *Rectified) SeriesResistance() float64 { return r.Source.SeriesResistance() }

// ConstantPower is a fixed available-power supply (the "battery/mains"
// reference point of the taxonomy: virtually unlimited power until
// exhausted).
type ConstantPower struct {
	P float64
}

// Power implements PowerSource.
func (c *ConstantPower) Power(float64) float64 { return c.P }

// ConstantVoltage is a fixed open-circuit voltage with series resistance —
// a bench supply or an idealised battery terminal.
type ConstantVoltage struct {
	V  float64
	Rs float64
}

// Voltage implements VoltageSource.
func (c *ConstantVoltage) Voltage(float64) float64 { return c.V }

// SeriesResistance implements VoltageSource.
func (c *ConstantVoltage) SeriesResistance() float64 { return c.Rs }

// Plateau implements PlateauVoltage: the output is one endless plateau.
func (c *ConstantVoltage) Plateau(float64) (float64, float64, bool) {
	return c.V, math.Inf(1), true
}

// GatedVoltage turns a VoltageSource on and off according to a schedule of
// [start, end) windows — used to model supply outages at controlled times
// (e.g. the eq. 5 crossover sweep drives outages at a set frequency).
type GatedVoltage struct {
	Source  VoltageSource
	Windows [][2]float64 // on-intervals; outside all windows output is 0
	Invert  bool         // if true, windows are outages instead
}

// Voltage implements VoltageSource. It scans every window: it is the
// reference the indexed sampler (VoltageFn) is checked against.
func (g *GatedVoltage) Voltage(t float64) float64 {
	in := false
	for _, w := range g.Windows {
		if t >= w[0] && t < w[1] {
			in = true
			break
		}
	}
	if in != g.Invert {
		return g.Source.Voltage(t)
	}
	return 0
}

// SeriesResistance implements VoltageSource.
func (g *GatedVoltage) SeriesResistance() float64 { return g.Source.SeriesResistance() }

// Plateau implements PlateauVoltage when the wrapped source does: the
// constant stretch is the wrapped source's plateau intersected with the
// window edges (which Voltage compares against t directly, so they bound
// the stretch exactly). Like Voltage it scans every window and is the
// reference for the indexed PlateauFn.
func (g *GatedVoltage) Plateau(t float64) (float64, float64, bool) {
	pv, ok := g.Source.(PlateauVoltage)
	if !ok {
		return 0, 0, false
	}
	in := false
	until := math.Inf(1)
	for _, w := range g.Windows {
		switch {
		case t >= w[0] && t < w[1]:
			in = true
			if w[1] < until {
				until = w[1]
			}
		case t < w[0]:
			if w[0] < until {
				until = w[0]
			}
		}
	}
	if in == g.Invert { // gated off: a zero plateau up to the next edge
		return 0, until, true
	}
	v, u, ok := pv.Plateau(t)
	if !ok {
		return 0, 0, false
	}
	if u < until {
		until = u
	}
	return v, until, true
}

// gateIndex is a window schedule prepared for O(log n) lookups. Its
// sorted, distinct edges cut the time line into segments: segment j is
// [edges[j-1], edges[j]), with segment 0 everything below edges[0] and
// the last everything from the last edge up. A binary search on the
// edges finds t's segment.
//
// The edges are every window start that is not NaN (Plateau bounds a
// stretch by the next start even of an empty window) and the end of
// every non-empty window (a < b, so NaN windows drop out). Voltage and
// Plateau compare t with these same values, so on a segment:
//   - membership is constant: a window [a, b) contains all of segment j
//     or none of it, since a and b are edges; it contains it iff
//     a ≤ edges[j-1] and b ≥ edges[j];
//   - Plateau's until is edges[j] (+Inf past the last edge). Its
//     candidates, a start above t or the end of a window holding t, are
//     edges above t, so none is below edges[j]; and edges[j] is one: a
//     start, or the end b of a non-empty window [a, b) with
//     a < b = edges[j], where a, an edge, is at most edges[j-1], so the
//     window holds t.
//
// So lookups are exact, ±Inf edges and a NaN t (which lands past the
// last edge: outside every window, until +Inf) included. The one thing
// a lookup may change is the sign of a zero until, where windows list
// both -0 and +0 as edges.
type gateIndex struct {
	edges []float64
	in    []bool // per segment: inside some window
}

func newGateIndex(windows [][2]float64) *gateIndex {
	var edges []float64
	for _, w := range windows {
		if w[0] == w[0] {
			edges = append(edges, w[0])
		}
		if w[0] < w[1] {
			edges = append(edges, w[1])
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	// depth[j] counts the windows holding segment j: [a, b) holds the
	// segments after a's edge up to b's.
	depth := make([]int, len(edges)+2)
	for _, w := range windows {
		if w[0] < w[1] {
			a, _ := slices.BinarySearch(edges, w[0])
			b, _ := slices.BinarySearch(edges, w[1])
			depth[a+1]++
			depth[b+1]--
		}
	}
	x := &gateIndex{edges: edges, in: make([]bool, len(edges)+1)}
	n := 0
	for j := range x.in {
		n += depth[j]
		x.in[j] = n > 0
	}
	return x
}

// segment returns the index of the segment containing t: the number of
// edges at or below t.
func (x *gateIndex) segment(t float64) int {
	lo, hi := 0, len(x.edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x.edges[m] > t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// until returns the end of segment j's constant stretch.
func (x *gateIndex) until(j int) float64 {
	if j < len(x.edges) {
		return x.edges[j]
	}
	return math.Inf(1)
}

// SquareWaveVoltage produces a square supply alternating between High for
// OnTime seconds and 0 for OffTime seconds — the canonical controlled
// intermittent supply for runtime comparisons (outage frequency
// = 1/(OnTime+OffTime)).
type SquareWaveVoltage struct {
	High    float64
	OnTime  float64
	OffTime float64
	Rs      float64
}

// Voltage implements VoltageSource.
func (s *SquareWaveVoltage) Voltage(t float64) float64 {
	period := s.OnTime + s.OffTime
	if period <= 0 {
		return s.High
	}
	return newSquareWave(s.High, s.OnTime, period).voltage(t)
}

// squareWave is the arithmetic of SquareWaveVoltage.Voltage for a
// positive period, shared by the method and its VoltageFn sampler.
type squareWave struct {
	high, on, period float64
	inv              float64 // 1/period, or NaN to always take the exact path
}

// squareSlack sizes the phase margin m = squareSlack·(t+period); see
// voltage for the error bound it covers.
const squareSlack = 0x1p-50

func newSquareWave(high, on, period float64) squareWave {
	inv := math.NaN()
	if period >= 0x1p-1000 {
		inv = 1 / period
	}
	return squareWave{high: high, on: on, period: period, inv: inv}
}

// voltage returns high while the exact phase math.Mod(t, period),
// wrapped into [0, period), is below on, and 0 otherwise.
//
// math.Mod is exact but is a software shift-subtract loop, several
// times the cost of the rest of a simulation step. The fast path
// reduces the phase as ph = t − ⌊t·inv⌋·period and decides from ph only
// when the decision is provable, falling back to the exact expression
// everywhere else.
//
// Proof obligation: for t ≥ 0, let k = ⌊t·inv⌋ (any non-negative
// integer; a mis-rounded product only changes which one), let
// φ = t − k·period in real arithmetic, and let p be the exact wrapped
// phase math.Mod yields, in [0, period). With u = 2⁻⁵³ and period ≥
// 2⁻¹⁰⁰⁰ (so no product below is subnormal), the two roundings in ph
// (k·period, then the subtraction; one if the compiler fuses them) give
// |ph − φ| ≤ u·k·period + u·|t − fl(k·period)|, which for ph in
// (0, period) is at most u·(t + 2·period)(1 + 2u). A rounded window
// bound that matters below lies in (0, period), so it is within
// u·period of its real value, and the total error is under
// 3.1u·(t + period) < m/2. Then:
//   - ph ∈ (m, on−m) ⇒ high. Either on ≥ period and p < on for every t,
//     or 0 < φ < on < period, so k is the exact quotient and p = φ < on.
//   - ph ∈ (on+m, period−m) ⇒ 0. Either on ≤ 0 and p ≥ on for every t,
//     or 0 < on < φ < period, so again p = φ ≥ on.
//
// Negative or non-finite t, a tiny or non-finite period (inv = NaN),
// and any ph in the margins or outside (0, period) — including a ⌊·⌋
// that rounded to the wrong quotient — fail every comparison and
// evaluate the original expression.
func (w squareWave) voltage(t float64) float64 {
	if t >= 0 {
		ph := t - math.Floor(t*w.inv)*w.period
		m := squareSlack * (t + w.period)
		if ph > m && ph < w.on-m {
			return w.high
		}
		if ph > w.on+m && ph < w.period-m {
			return 0
		}
	}
	phase := math.Mod(t, w.period)
	if phase < 0 {
		phase += w.period
	}
	if phase < w.on {
		return w.high
	}
	return 0
}

// SeriesResistance implements VoltageSource.
func (s *SquareWaveVoltage) SeriesResistance() float64 { return s.Rs }

// Plateau implements PlateauVoltage: the half-cycle containing t. Voltage
// decides every instant from the exact phase (math.Mod's value, which
// its fast path provably agrees with), so every instant of the
// half-cycle returns exactly High (or exactly 0); the boundary in until
// carries the rounding of the additions that rebuild it from the phase,
// which the interface's safety-margin requirement covers. Plateau runs
// once per fast-forward hop, so it keeps math.Mod.
func (s *SquareWaveVoltage) Plateau(t float64) (float64, float64, bool) {
	period := s.OnTime + s.OffTime
	if period <= 0 {
		return s.High, math.Inf(1), true
	}
	phase := math.Mod(t, period)
	if phase < 0 {
		phase += period
	}
	if phase < s.OnTime {
		return s.High, t + (s.OnTime - phase), true
	}
	return 0, t + (period - phase), true
}
