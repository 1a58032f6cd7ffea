package source

import "math"

// This file provides precomputed samplers: plain funcs that evaluate a
// source's waveform without the per-call interface dispatch of
// VoltageSource.Voltage / PowerSource.Power. The simulation hot loop
// samples the supply once per 5 µs step, so the dispatch (and, for
// wrapped sources like Rectified(SignalGenerator), the dispatch chain)
// is paid millions of times per simulated second; binding it away is
// one of the lab's core optimizations.
//
// Correctness contract: a sampler returns bit-identical values to the
// method it replaces. Each closure body either is the same arithmetic in
// the same evaluation order, with only loop-invariant subexpressions
// (whose hoisting cannot change the result under IEEE-754 left-to-right
// evaluation) precomputed, or calls the very code the method calls (the
// square wave's squareWave.voltage; the PV cell's Current). Fast paths
// inside that shared code must be exact, each with a written proof:
// TestSamplersMatchRegistry and TestSamplersMatchCombinators pin sampler
// against method for every registered source and combinator, and the
// tests in oracle_test.go pin both against the plain math.Mod formulas.
//
// Samplers capture source parameters at bind time: mutate a source's
// fields mid-run and the sampler (unlike the method) will not see it.
// Nothing in this repository mutates a source during a run — sources
// are documented as pure functions of time.

// VoltageFn returns a sampler equivalent to vs.Voltage. Known concrete
// types get composed closures; anything else falls back to the bound
// interface method.
func VoltageFn(vs VoltageSource) func(t float64) float64 {
	switch s := vs.(type) {
	case *SignalGenerator:
		if s.Frequency == 0 {
			dc := s.Amplitude + s.Offset
			return func(float64) float64 { return dc }
		}
		// 2*math.Pi*s.Frequency*t evaluates as ((2π)·f)·t, so hoisting
		// w = (2π)·f leaves w·t bit-identical.
		w := 2 * math.Pi * s.Frequency
		off, amp, phase := s.Offset, s.Amplitude, s.Phase
		return func(t float64) float64 {
			return off + amp*math.Sin(w*t+phase)
		}
	case *ConstantVoltage:
		v := s.V
		return func(float64) float64 { return v }
	case *SquareWaveVoltage:
		period := s.OnTime + s.OffTime
		if period <= 0 {
			high := s.High
			return func(float64) float64 { return high }
		}
		w := newSquareWave(s.High, s.OnTime, period)
		return w.voltage
	case *Rectified:
		if gen, ok := s.Source.(*SignalGenerator); ok &&
			gen.Frequency > 0 && gen.Amplitude > 0 {
			// Fused half-wave rectified sine — the Fig. 7 supply, sampled
			// once per step for the whole run, where math.Sin dominates
			// the sampler cost. Roughly half of those calls land in the
			// negative lobe, where the rectifier clamps the output to
			// exactly 0 no matter what sin evaluates to; those calls can
			// skip the sin entirely, provided the clamp is *provable*
			// from the reduced phase alone.
			//
			// Proof obligation: for reduced phase θ ∈ [π+m, 2π−m],
			// sin(θ) ≤ −sin(m), so off + amp·sin − drop ≤
			// off − drop − amp·sin(m) ≤ 0 whenever off − drop ≤
			// amp·sin(m) (checked once at bind time). The cheap
			// floor-based reduction θ = x − ⌊x/2π⌋·2π carries rounding
			// error ~ulp(x) plus ~2.4e-16/period of drift against
			// math.Sin's internal reduction by the real π — the margin m
			// dwarfs both for any plausible run length (math.Mod would be
			// exact but costs several times a sin on common hardware).
			// Everything outside the provable window evaluates the
			// original expression on the unreduced argument,
			// bit-identical to the method chain.
			const m = 0.01
			w := 2 * math.Pi * gen.Frequency
			off, amp, phase := gen.Offset, gen.Amplitude, gen.Phase
			drop := s.DiodeV
			if off-drop <= amp*math.Sin(m) {
				const twoPi = 2 * math.Pi
				const inv2Pi = 1 / twoPi
				lo, hi := math.Pi+m, twoPi-m
				return func(t float64) float64 {
					x := w*t + phase
					if th := x - math.Floor(x*inv2Pi)*twoPi; th >= lo && th <= hi {
						return 0
					}
					v := off + amp*math.Sin(x) - drop
					if v < 0 {
						return 0
					}
					return v
				}
			}
		}
		inner := VoltageFn(s.Source)
		drop := s.DiodeV
		return func(t float64) float64 {
			v := inner(t) - drop
			if v < 0 {
				return 0
			}
			return v
		}
	case *GatedVoltage:
		inner := VoltageFn(s.Source)
		x, invert := newGateIndex(s.Windows), s.Invert
		return func(t float64) float64 {
			if x.in[x.segment(t)] != invert {
				return inner(t)
			}
			return 0
		}
	case *WindTurbine:
		// Envelope branches on gust phase; binding the method skips only
		// the itab dispatch, which is all there is to save here.
		return s.Voltage
	default:
		return vs.Voltage
	}
}

// PlateauFn returns a function equivalent to vs.Plateau, or nil when vs
// does not implement PlateauVoltage. A GatedVoltage's windows are
// indexed here, once, so a lookup costs O(log windows) instead of a
// scan; see gateIndex for why it is exact.
func PlateauFn(vs VoltageSource) func(t float64) (v, until float64, ok bool) {
	g, ok := vs.(*GatedVoltage)
	if !ok {
		if p, ok := vs.(PlateauVoltage); ok {
			return p.Plateau
		}
		return nil
	}
	inner := PlateauFn(g.Source)
	if inner == nil {
		return func(float64) (float64, float64, bool) { return 0, 0, false }
	}
	x, invert := newGateIndex(g.Windows), g.Invert
	return func(t float64) (float64, float64, bool) {
		j := x.segment(t)
		until := x.until(j)
		if x.in[j] == invert { // gated off: a zero plateau up to the next edge
			return 0, until, true
		}
		v, u, ok := inner(t)
		if !ok {
			return 0, 0, false
		}
		if u < until {
			until = u
		}
		return v, until, true
	}
}

// PowerFn returns a sampler equivalent to ps.Power — the PowerSource
// counterpart of VoltageFn.
func PowerFn(ps PowerSource) func(t float64) float64 {
	switch s := ps.(type) {
	case *ConstantPower:
		p := s.P
		return func(float64) float64 { return p }
	case *Photovoltaic:
		return s.Power
	default:
		return ps.Power
	}
}
