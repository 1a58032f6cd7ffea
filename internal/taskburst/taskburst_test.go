package taskburst

import (
	"math"
	"strings"
	"testing"

	"repro/internal/source"
)

// The reference tasks of §II.B.
var (
	photo = Task{Name: "photo", EnergyJ: 6e-3}   // WISPCam [4]: one VGA photo per 6 mF charge, NVM storage included
	ping  = Task{Name: "ping", EnergyJ: 1e-3}    // Monjolo [6]: one packet per 500 µF charge, radio startup included
	burst = Task{Name: "burst", EnergyJ: 100e-6} // Gomez et al. [5]: one sample+transmit burst in the 80 µF regime
)

// powerFunc adapts a plain function of time to source.PowerSource.
type powerFunc func(t float64) float64

func (f powerFunc) Power(t float64) float64 { return f(t) }

func TestMonjoloPingRateTracksPower(t *testing.T) {
	// Monjolo's principle: the wireless ping frequency is proportional to
	// the harvested power. Doubling the power should roughly double the
	// rate.
	rate := func(p float64) float64 {
		n, err := NewNode(500e-6, ping, &source.ConstantPower{P: p}, 1.8, 5.0, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		NewSim(n, 60, 1e-4).Step(0)
		return n.Rate(10, 60) // skip the first charge
	}
	r1 := rate(5e-3)
	r2 := rate(10e-3)
	if r1 <= 0 {
		t.Fatal("no pings at 5 mW")
	}
	ratio := r2 / r1
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("rate ratio for 2× power = %.2f, want ≈2 (Monjolo linearity)", ratio)
	}
}

func TestWISPCamTakesPhotosOnRFBursts(t *testing.T) {
	// WISPCam charges its 6 mF supercap from RF power and takes one photo
	// per charge cycle; with the reader off it never fires. The reader
	// illuminates the tag at 5 mW for 1.8 s of every 2 s.
	rf := powerFunc(func(t float64) float64 {
		if math.Mod(t, 2) < 1.8 {
			return 5e-3
		}
		return 0
	})
	n, err := NewNode(6e-3, photo, rf, 1.8, 5.0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	NewSim(n, 60, 1e-4).Step(0)
	if len(n.Events) == 0 {
		t.Fatal("WISPCam never captured a photo")
	}
	// Energy accounting: each event must be separated by at least the
	// task recharge time E/(P·duty).
	minGap := photo.EnergyJ / 0.8 / (5e-3 * 0.9) * 0.85
	for i := 1; i < len(n.Events); i++ {
		if gap := n.Events[i] - n.Events[i-1]; gap < minGap {
			t.Errorf("events %d,%d only %.2fs apart; recharge needs ≥%.2fs", i-1, i, gap, minGap)
		}
	}
	// No harvest, no photos.
	n2, err := NewNode(6e-3, photo, &source.ConstantPower{P: 0}, 1.8, 5.0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	NewSim(n2, 30, 1e-4).Step(0)
	if len(n2.Events) != 0 {
		t.Error("photos without power")
	}
}

func TestGomezBurstHighRateSmallCap(t *testing.T) {
	// The 80 µF regime: small tasks, small storage, high burst rate.
	n, err := NewNode(80e-6, burst, &source.ConstantPower{P: 2e-3}, 1.8, 5.0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	NewSim(n, 20, 1e-5).Step(0)
	r := n.Rate(5, 20)
	// 2 mW harvest, 125 µJ per firing (incl. η): ≈16 Hz ideal; accept a
	// broad band (charging tail effects).
	if r < 8 || r > 20 {
		t.Errorf("burst rate = %.1f Hz, want ≈16", r)
	}
}

func TestCapacitorTooSmallRejected(t *testing.T) {
	// A 6 mJ photo cannot fit in 80 µF below 5 V.
	_, err := NewNode(80e-6, photo, &source.ConstantPower{P: 1e-3}, 1.8, 5.0, 0.8)
	if err == nil {
		t.Fatal("expected sizing error")
	}
	if !strings.Contains(err.Error(), "cannot hold") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestVFireSatisfiesEnergyBudget(t *testing.T) {
	// The computed firing threshold must store ≥ task/η between floor and
	// fire voltages.
	n, err := NewNode(500e-6, ping, &source.ConstantPower{P: 1e-3}, 1.8, 5.0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0.5 * 500e-6 * (n.VFire*n.VFire - n.VFloor*n.VFloor)
	if stored < ping.EnergyJ/0.8 {
		t.Errorf("threshold stores %.3g J < required %.3g J", stored, ping.EnergyJ/0.8)
	}
}

func TestRateWindowing(t *testing.T) {
	n := &Node{Events: []float64{1, 2, 3, 11, 12}}
	if got := n.Rate(0, 10); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("rate = %g, want 0.3", got)
	}
	if n.Rate(5, 5) != 0 {
		t.Error("degenerate window should be 0")
	}
}
