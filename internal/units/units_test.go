package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCapacitorEnergy(t *testing.T) {
	tests := []struct {
		name string
		c, v float64
		want float64
	}{
		{"10uF at 3V", 10e-6, 3.0, 45e-6},
		{"6mF at 2V", 6e-3, 2.0, 12e-3},
		{"zero voltage", 1e-6, 0, 0},
		{"unit values", 1, 1, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CapacitorEnergy(tt.c, tt.v); !approxEqual(got, tt.want, 1e-12) {
				t.Errorf("CapacitorEnergy(%g, %g) = %g, want %g", tt.c, tt.v, got, tt.want)
			}
		})
	}
}

func TestCapacitorVoltageInvertsEnergy(t *testing.T) {
	f := func(cRaw, vRaw float64) bool {
		c := 1e-9 + math.Abs(cRaw)/1e280 // keep in a sane range
		if c > 1 {
			c = math.Mod(c, 1) + 1e-9
		}
		v := math.Mod(math.Abs(vRaw), 100)
		e := CapacitorEnergy(c, v)
		back := CapacitorVoltage(c, e)
		return approxEqual(back, v, 1e-9) || v == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCapacitorVoltageEdgeCases(t *testing.T) {
	if got := CapacitorVoltage(0, 1); got != 0 {
		t.Errorf("zero capacitance: got %g, want 0", got)
	}
	if got := CapacitorVoltage(1e-6, -1); got != 0 {
		t.Errorf("negative energy: got %g, want 0", got)
	}
	if got := CapacitorVoltage(1e-6, 0); got != 0 {
		t.Errorf("zero energy: got %g, want 0", got)
	}
}

func TestEnergyBetween(t *testing.T) {
	// 10 µF from 3 V to 2 V releases C(9-4)/2 = 25 µJ.
	got := EnergyBetween(10e-6, 3, 2)
	if !approxEqual(got, 25e-6, 1e-12) {
		t.Errorf("EnergyBetween = %g, want 25e-6", got)
	}
	// Charging direction is negative.
	if EnergyBetween(10e-6, 2, 3) >= 0 {
		t.Error("charging direction should be negative")
	}
}

func TestHibernateThresholdSatisfiesEq4(t *testing.T) {
	// For any positive E_s, C, V_min the returned V_H must satisfy
	// E_s <= (V_H^2 - V_min^2) C / 2 with equality.
	f := func(eRaw, cRaw, vRaw float64) bool {
		eSave := math.Mod(math.Abs(eRaw), 1e-3) + 1e-9
		c := math.Mod(math.Abs(cRaw), 1e-2) + 1e-9
		vMin := math.Mod(math.Abs(vRaw), 3) + 0.5
		vh := HibernateThreshold(eSave, c, vMin)
		if vh < vMin {
			return false
		}
		budget := (vh*vh - vMin*vMin) * c / 2
		return approxEqual(budget, eSave, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHibernateThresholdKnownValue(t *testing.T) {
	// E_s = 25 µJ, C = 10 µF, V_min = 2 V: V_H = sqrt(2*25e-6/10e-6 + 4) = 3.
	got := HibernateThreshold(25e-6, 10e-6, 2)
	if !approxEqual(got, 3.0, 1e-12) {
		t.Errorf("HibernateThreshold = %g, want 3", got)
	}
	if !math.IsInf(HibernateThreshold(1e-6, 0, 2), 1) {
		t.Error("zero capacitance should yield +Inf threshold")
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%g,%g,%g) = %g, want %g", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(v, a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormat(t *testing.T) {
	tests := []struct {
		v    float64
		unit string
		want string
	}{
		{4.7e-6, "F", "4.7µF"},
		{0, "V", "0V"},
		{3.3, "V", "3.3V"},
		{500e-6, "F", "500µF"},
		{2.2e3, "Ω", "2.2kΩ"},
		{1.5e-9, "F", "1.5nF"},
	}
	for _, tt := range tests {
		if got := Format(tt.v, tt.unit); got != tt.want {
			t.Errorf("Format(%g, %q) = %q, want %q", tt.v, tt.unit, got, tt.want)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	tests := []struct {
		s    float64
		want string
	}{
		{7200, "2h"},
		{90, "1.5min"},
		{2.5, "2.5s"},
		{0.004, "4ms"},
		{12e-6, "12µs"},
		{0, "0s"},
	}
	for _, tt := range tests {
		if got := FormatSeconds(tt.s); got != tt.want {
			t.Errorf("FormatSeconds(%g) = %q, want %q", tt.s, got, tt.want)
		}
	}
	if !strings.HasSuffix(FormatSeconds(3e-9), "ns") {
		t.Error("nanosecond range should format with ns")
	}
}

func TestApproxEqual(t *testing.T) {
	if !approxEqual(100, 100.0001, 1e-5) {
		t.Error("values within relative tolerance should be equal")
	}
	if approxEqual(100, 101, 1e-5) {
		t.Error("values outside relative tolerance should differ")
	}
	if !approxEqual(0, 1e-9, 1e-6) {
		t.Error("near-zero absolute fallback failed")
	}
}

func TestParseSI(t *testing.T) {
	tests := []struct {
		in   string
		want float64
	}{
		{"10u", 10e-6},
		{"4.7m", 4.7e-3},
		{"470n", 470e-9},
		{"3.3", 3.3},
		{"5e-6", 5e-6},
		{"50k", 50e3},
		{"2M", 2e6},
		{"1G", 1e9},
		{"7p", 7e-12},
		{"6µ", 6e-6},
		{" 10u ", 10e-6},
		{"-3m", -3e-3},
	}
	for _, tt := range tests {
		got, err := ParseSI(tt.in)
		if err != nil {
			t.Errorf("ParseSI(%q): %v", tt.in, err)
			continue
		}
		if !approxEqual(got, tt.want, 1e-12) {
			t.Errorf("ParseSI(%q) = %g, want %g", tt.in, got, tt.want)
		}
	}
}

func TestParseSIRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "u", "ten", "10uu", "1.2.3"} {
		if v, err := ParseSI(in); err == nil {
			t.Errorf("ParseSI(%q) = %g, want error", in, v)
		}
	}
}

func TestParseSIRejectsNonFinite(t *testing.T) {
	for _, in := range []string{"NaN", "nan", "inf", "+Inf", "-inf"} {
		if v, err := ParseSI(in); err == nil {
			t.Errorf("ParseSI(%q) = %g, want error", in, v)
		}
	}
}

// approxEqual reports whether a and b agree within relative tolerance rel
// (falling back to absolute tolerance rel for values near zero).
func approxEqual(a, b, rel float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return diff <= rel
	}
	return diff <= rel*scale
}
