// Package units provides physical-quantity helpers used throughout the
// energy-driven computing simulator: SI prefixes, formatting, and the small
// set of electrical conversions (energy in a capacitor, charge transfer,
// RC time constants) that the circuit and runtime layers share.
//
// All quantities are plain float64 values in base SI units (volts, amperes,
// watts, joules, farads, ohms, seconds, hertz). The package deliberately
// avoids distinct wrapper types: the simulator's inner loops do millions of
// arithmetic operations per simulated second and must stay allocation- and
// conversion-free. Instead, units offers named constructors (Milli, Micro,
// ...) and Format helpers so call sites stay readable.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SI prefix multipliers. Use as units.Micro*470 for 470 µF, etc.
const (
	Pico  = 1e-12
	Nano  = 1e-9
	Micro = 1e-6
	Milli = 1e-3
	Kilo  = 1e3
	Mega  = 1e6
	Giga  = 1e9
)

// Common time helpers expressed in seconds.
const (
	Microsecond = 1e-6
	Millisecond = 1e-3
	Second      = 1.0
	Minute      = 60.0
	Hour        = 3600.0
	Day         = 86400.0
)

// CapacitorEnergy returns the energy in joules stored in capacitance c
// (farads) charged to voltage v: E = C·V²/2.
func CapacitorEnergy(c, v float64) float64 {
	return 0.5 * c * v * v
}

// CapacitorVoltage returns the voltage across capacitance c holding energy
// e joules: V = sqrt(2E/C). It returns 0 for non-positive energy or
// capacitance.
func CapacitorVoltage(c, e float64) float64 {
	if c <= 0 || e <= 0 {
		return 0
	}
	return math.Sqrt(2 * e / c)
}

// EnergyBetween returns the energy released by capacitance c discharging
// from voltage vHigh to vLow: ΔE = C·(vHigh²−vLow²)/2. The result is
// negative if vLow > vHigh (charging).
func EnergyBetween(c, vHigh, vLow float64) float64 {
	return 0.5 * c * (vHigh*vHigh - vLow*vLow)
}

// HibernateThreshold solves the paper's eq. (4) for the minimum hibernate
// threshold V_H such that a snapshot costing eSave joules completes before
// V_CC decays to vMin on capacitance c:
//
//	E_s ≤ (V_H² − V_min²)·C/2  ⇒  V_H = sqrt(2·E_s/C + V_min²)
//
// Callers typically add a guard margin on top of the returned value.
func HibernateThreshold(eSave, c, vMin float64) float64 {
	if c <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(2*eSave/c + vMin*vMin)
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// prefix describes one SI formatting band.
type prefix struct {
	mult   float64
	symbol string
}

var prefixes = []prefix{
	{1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1, ""},
	{1e-3, "m"}, {1e-6, "µ"}, {1e-9, "n"}, {1e-12, "p"},
}

// Format renders value with an SI prefix and the given unit symbol, e.g.
// Format(4.7e-6, "F") == "4.70µF". Zero renders without a prefix.
func Format(value float64, unit string) string {
	if value == 0 {
		return "0" + unit
	}
	av := math.Abs(value)
	for _, p := range prefixes {
		if av >= p.mult {
			return fmt.Sprintf("%.3g%s%s", value/p.mult, p.symbol, unit)
		}
	}
	return fmt.Sprintf("%.3g%s", value, unit)
}

// siSuffixes maps the single-character magnitude suffixes ParseSI
// accepts onto decimal exponents. "m" is milli and "M" mega, matching
// SI; there is no ambiguity because the map is case-sensitive.
var siSuffixes = map[string]string{
	"p": "e-12", "n": "e-9", "u": "e-6", "µ": "e-6",
	"m": "e-3", "k": "e3", "M": "e6", "G": "e9",
}

// ParseSI parses a number with an optional SI magnitude suffix, as used
// in scenario specs and CLI flags: "10u" → 1e-5, "4.7m" → 4.7e-3,
// "50k" → 5e4, "3.3" → 3.3. Scientific notation without a suffix
// ("5e-6") also works. The suffix is folded into the decimal exponent
// before parsing, so "10u" yields exactly the float64 the literal 10e-6
// does — no second rounding from a multiply.
func ParseSI(s string) (float64, error) {
	in := strings.TrimSpace(s)
	num := in
	for suf, exp := range siSuffixes {
		if strings.HasSuffix(num, suf) && len(num) > len(suf) {
			num = strings.TrimSuffix(num, suf) + exp
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("invalid quantity %q", in)
	}
	return v, nil
}

// FormatSeconds renders a duration in seconds using the most natural unit
// (h, min, s, ms, µs, ns).
func FormatSeconds(s float64) string {
	as := math.Abs(s)
	switch {
	case as >= Hour:
		return fmt.Sprintf("%.3gh", s/Hour)
	case as >= Minute:
		return fmt.Sprintf("%.3gmin", s/Minute)
	case as >= 1:
		return fmt.Sprintf("%.3gs", s)
	case as >= Millisecond:
		return fmt.Sprintf("%.3gms", s/Millisecond)
	case as >= Microsecond:
		return fmt.Sprintf("%.3gµs", s/Microsecond)
	case as == 0:
		return "0s"
	default:
		return fmt.Sprintf("%.3gns", s/Nano)
	}
}
