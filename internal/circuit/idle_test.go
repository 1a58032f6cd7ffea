package circuit

import (
	"math"
	"testing"
)

// stepIdle integrates n idle steps the slow way: Step with no source and a
// constant-current load, the reference AdvanceIdle must match.
func stepIdle(c, v0, leakR, iLoad, dt float64, n int) (*Rail, float64) {
	cap := NewCapacitor(c, v0)
	cap.LeakR = leakR
	r := NewRail(cap)
	r.AddLoad(&fixedLoad{i: iLoad})
	var v float64
	for i := 0; i < n; i++ {
		v = r.Step(dt)
	}
	return r, v
}

// fixedLoad draws a constant current at any voltage above zero — unlike
// ConstantCurrentLoad it has no VMin cutoff, matching the off-mode device
// draw AdvanceIdle assumes.
type fixedLoad struct{ i float64 }

func (l *fixedLoad) Current(v, _ float64) float64 {
	if v <= 0 {
		return 0
	}
	return l.i
}

func TestAdvanceIdleMatchesStepwise(t *testing.T) {
	cases := []struct {
		name         string
		c, v0        float64
		leakR, iLoad float64
		dt           float64
		n            int
	}{
		{"leak+load", 10e-6, 3.3, 50e3, 50e-9, 5e-6, 30000},
		{"leak-only", 10e-6, 3.3, 50e3, 0, 5e-6, 30000},
		{"load-only", 10e-6, 3.3, 0, 1.5e-6, 5e-6, 30000},
		{"sleep-draw", 330e-6, 2.8, 200e3, 1.5e-6, 5e-6, 100000},
		{"clamps-to-zero", 1e-6, 0.5, 10e3, 5e-6, 5e-6, 50000},
		{"from-zero", 10e-6, 0, 50e3, 50e-9, 5e-6, 1000},
		{"short-chunk", 10e-6, 3.0, 50e3, 50e-9, 5e-6, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, vRef := stepIdle(tc.c, tc.v0, tc.leakR, tc.iLoad, tc.dt, tc.n)

			cap := NewCapacitor(tc.c, tc.v0)
			cap.LeakR = tc.leakR
			r := NewRail(cap)
			vGot := r.AdvanceIdle(tc.n, tc.dt, tc.iLoad)

			if d := math.Abs(vGot - vRef); d > 1e-9+1e-9*vRef {
				t.Errorf("V after %d steps: closed form %.12f vs stepwise %.12f (Δ=%.3g)",
					tc.n, vGot, vRef, d)
			}
			if d := math.Abs(r.ConsumedJ - ref.ConsumedJ); d > 1e-12+1e-9*math.Abs(ref.ConsumedJ) {
				t.Errorf("ConsumedJ: closed form %.6g vs stepwise %.6g", r.ConsumedJ, ref.ConsumedJ)
			}
			if d := math.Abs(r.Now() - ref.Now()); d > 1e-12 {
				t.Errorf("clock: closed form %.9f vs stepwise %.9f", r.Now(), ref.Now())
			}
			if r.HarvestedJ != 0 {
				t.Errorf("idle advance harvested %.3g J from no source", r.HarvestedJ)
			}
		})
	}
}

func TestPeekIdleDoesNotMutate(t *testing.T) {
	cap := NewCapacitor(10e-6, 3.3)
	cap.LeakR = 50e3
	r := NewRail(cap)
	v := r.PeekIdle(10000, 5e-6, 1e-6)
	if v >= 3.3 {
		t.Errorf("predicted voltage %.3f should have decayed", v)
	}
	if r.V() != 3.3 || r.Now() != 0 || r.ConsumedJ != 0 {
		t.Error("PeekIdle mutated the rail")
	}
	got := r.AdvanceIdle(10000, 5e-6, 1e-6)
	if got != v {
		t.Errorf("AdvanceIdle %.12f disagrees with PeekIdle %.12f", got, v)
	}
}

func TestAdvanceIdleUnstableRegimeFallsBack(t *testing.T) {
	// dt comparable to the leak RC constant drives the Euler factor a ≤ 0;
	// the closed form must fall back to exact iteration, matching Step.
	c, v0, leakR := 1e-6, 3.0, 0.4 // RC = 0.4 µs < dt
	ref, vRef := stepIdle(c, v0, leakR, 0, 5e-6, 10)
	cap := NewCapacitor(c, v0)
	cap.LeakR = leakR
	r := NewRail(cap)
	vGot := r.AdvanceIdle(10, 5e-6, 0)
	if math.Abs(vGot-vRef) > 1e-12 {
		t.Errorf("unstable regime: got %.12f want %.12f", vGot, vRef)
	}
	_ = ref
}
