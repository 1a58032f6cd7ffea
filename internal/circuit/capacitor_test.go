package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCapacitorChargeDischarge(t *testing.T) {
	c := NewCapacitor(100e-6, 0)
	// 1 mA for 100 ms into 100 µF: ΔV = I·t/C = 1 V.
	for i := 0; i < 1000; i++ {
		c.Step(1e-3, 100e-6)
	}
	if math.Abs(c.V-1.0) > 1e-9 {
		t.Errorf("charged V = %g, want 1.0", c.V)
	}
	// Discharge the same charge symmetrically.
	for i := 0; i < 1000; i++ {
		c.Step(-1e-3, 100e-6)
	}
	if math.Abs(c.V) > 1e-9 {
		t.Errorf("discharged V = %g, want 0", c.V)
	}
}

func TestCapacitorVoltageNeverNegative(t *testing.T) {
	c := NewCapacitor(1e-6, 0.1)
	for i := 0; i < 100; i++ {
		c.Step(-1, 1e-3) // massive discharge current
	}
	if c.V < 0 {
		t.Errorf("voltage went negative: %g", c.V)
	}
}

func TestCapacitorOvervoltageClamp(t *testing.T) {
	c := NewCapacitor(1e-6, 0)
	c.MaxV = 3.3
	for i := 0; i < 1000; i++ {
		c.Step(1e-3, 1e-3)
	}
	if c.V != 3.3 {
		t.Errorf("clamped V = %g, want 3.3", c.V)
	}
	if c.ClampedJ <= 0 {
		t.Error("clamp should account for shed energy")
	}
}

func TestCapacitorLeakage(t *testing.T) {
	c := NewCapacitor(100e-6, 3.0)
	c.LeakR = 100e3 // τ = 10 s
	for i := 0; i < 100000; i++ {
		c.Step(0, 100e-6) // 10 s total
	}
	// After one time constant, V ≈ 3/e ≈ 1.104.
	want := 3.0 / math.E
	if math.Abs(c.V-want)/want > 0.01 {
		t.Errorf("after τ: V = %g, want ≈%g", c.V, want)
	}
}

func TestCapacitorEnergyAccessor(t *testing.T) {
	c := NewCapacitor(10e-6, 3)
	if got := c.Energy(); math.Abs(got-45e-6) > 1e-12 {
		t.Errorf("Energy = %g, want 45e-6", got)
	}
}

func TestCapacitorZeroCapacitanceNoop(t *testing.T) {
	c := &Capacitor{C: 0, V: 2}
	c.Step(1, 1)
	if c.V != 2 {
		t.Error("zero-capacitance step should not change voltage")
	}
}

func TestDrawEnergy(t *testing.T) {
	c := NewCapacitor(10e-6, 3)
	// Draw 25 µJ above a 2 V floor: exactly the available budget.
	got := c.DrawEnergy(25e-6, 2)
	if math.Abs(got-25e-6) > 1e-12 {
		t.Errorf("drawn = %g, want 25e-6", got)
	}
	if math.Abs(c.V-2) > 1e-9 {
		t.Errorf("post-draw V = %g, want 2", c.V)
	}
	// Nothing left above the floor.
	if c.DrawEnergy(1e-6, 2) != 0 {
		t.Error("draw below floor should return 0")
	}
	// Partial draw when requesting more than available.
	c2 := NewCapacitor(10e-6, 3)
	got2 := c2.DrawEnergy(1, 2)
	if math.Abs(got2-25e-6) > 1e-12 {
		t.Errorf("over-draw should cap at available: %g", got2)
	}
	if c.DrawEnergy(-1, 0) != 0 {
		t.Error("negative request should return 0")
	}
}

func TestDrawEnergyConservation(t *testing.T) {
	f := func(vRaw, eRaw float64) bool {
		v := math.Mod(math.Abs(vRaw), 5) + 1 // 1..6 V
		c := NewCapacitor(47e-6, v)
		before := c.Energy()
		req := math.Mod(math.Abs(eRaw), before)
		got := c.DrawEnergy(req, 0.5)
		after := c.Energy()
		return approxEqual(before-after, got, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBatteryChargeDischarge(t *testing.T) {
	b := NewBattery(1000, 0.5)
	if math.Abs(b.SoC*b.CapacityJ-500) > 1e-9 {
		t.Errorf("energy = %g, want 500", b.SoC*b.CapacityJ)
	}
	// Charge 100 J: stored 95 J at η=0.95.
	spill := b.Charge(100)
	if spill != 0 {
		t.Errorf("unexpected spill %g", spill)
	}
	if math.Abs(b.SoC*b.CapacityJ-595) > 1e-9 {
		t.Errorf("post-charge energy = %g, want 595", b.SoC*b.CapacityJ)
	}
	// Discharge 95 J delivered: removes 100 J stored.
	got := b.Discharge(95)
	if math.Abs(got-95) > 1e-9 {
		t.Errorf("delivered = %g, want 95", got)
	}
	if math.Abs(b.SoC*b.CapacityJ-495) > 1e-9 {
		t.Errorf("post-discharge energy = %g, want 495", b.SoC*b.CapacityJ)
	}
}

func TestBatterySpillAndDepletion(t *testing.T) {
	b := NewBattery(100, 0.99)
	spill := b.Charge(100) // 95 stored vs 1 J room: most spills
	if spill <= 0 {
		t.Error("overcharge should spill")
	}
	if b.SoC > 1.0001 {
		t.Errorf("SoC exceeded 1: %g", b.SoC)
	}
	b2 := NewBattery(100, 0.01)
	got := b2.Discharge(1000)
	if got >= 1000 || got <= 0 {
		t.Errorf("deep discharge delivered %g", got)
	}
	if b2.SoC > 1e-9 {
		t.Errorf("battery should be depleted, SoC = %g", b2.SoC)
	}
}

func TestBatteryEdgeCases(t *testing.T) {
	b := NewBattery(100, 0.5)
	if b.Charge(-5) != 0 || b.Discharge(-5) != 0 {
		t.Error("negative energy should be a no-op")
	}
	zero := &Battery{}
	if zero.Charge(5) != 0 || zero.Discharge(5) != 0 {
		t.Error("zero-capacity battery should be a no-op")
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
