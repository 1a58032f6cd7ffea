package circuit

import (
	"math"
	"testing"

	"repro/internal/source"
)

// stepDriven integrates n steps the slow way: Step with a DC voltage
// source conducting into a constant-current load — the reference
// AdvanceDriven must match.
func stepDriven(c, v0, leakR, iLoad, vs, rs, dt float64, n int) (*Rail, float64) {
	cap := NewCapacitor(c, v0)
	cap.LeakR = leakR
	r := NewRail(cap)
	r.VSource = &source.ConstantVoltage{V: vs, Rs: rs}
	r.AddLoad(&fixedLoad{i: iLoad})
	var v float64
	for i := 0; i < n; i++ {
		v = r.Step(dt)
	}
	return r, v
}

func TestAdvanceDrivenMatchesStepwise(t *testing.T) {
	cases := []struct {
		name         string
		c, v0        float64
		leakR, iLoad float64
		vs, rs       float64
		dt           float64
		n            int
	}{
		{"charge-from-zero", 10e-6, 0, 0, 0, 3.3, 100, 5e-6, 30000},
		{"charge-with-load", 10e-6, 1.0, 0, 2e-3, 3.3, 100, 5e-6, 30000},
		{"charge-with-leak", 10e-6, 0.5, 50e3, 50e-9, 3.3, 100, 5e-6, 30000},
		{"near-equilibrium", 10e-6, 3.29, 0, 0, 3.3, 100, 5e-6, 100000},
		// v0 > 0: fixedLoad cuts off at exactly 0 V while the closed form
		// assumes constant draw — the lab never hops from exactly 0 V
		// either (a 0 V start sits on the zero-clamp threshold).
		{"soft-source", 10e-6, 0.05, 0, 100e-6, 3.0, 3000, 5e-6, 60000},
		{"short-chunk", 10e-6, 2.0, 50e3, 1e-3, 3.3, 100, 5e-6, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, vRef := stepDriven(tc.c, tc.v0, tc.leakR, tc.iLoad, tc.vs, tc.rs, tc.dt, tc.n)

			cap := NewCapacitor(tc.c, tc.v0)
			cap.LeakR = tc.leakR
			r := NewRail(cap)
			r.VSource = &source.ConstantVoltage{V: tc.vs, Rs: tc.rs}
			vGot := r.AdvanceDriven(tc.n, tc.dt, tc.iLoad, tc.vs)

			if d := math.Abs(vGot - vRef); d > 1e-9+1e-9*vRef {
				t.Errorf("V after %d steps: closed form %.12f vs stepwise %.12f (Δ=%.3g)",
					tc.n, vGot, vRef, d)
			}
			relTol := func(a, b float64) float64 { return 1e-12 + 1e-8*math.Abs(b) }
			if d := math.Abs(r.ConsumedJ - ref.ConsumedJ); d > relTol(r.ConsumedJ, ref.ConsumedJ) {
				t.Errorf("ConsumedJ: closed form %.6g vs stepwise %.6g", r.ConsumedJ, ref.ConsumedJ)
			}
			if d := math.Abs(r.HarvestedJ - ref.HarvestedJ); d > relTol(r.HarvestedJ, ref.HarvestedJ) {
				t.Errorf("HarvestedJ: closed form %.6g vs stepwise %.6g", r.HarvestedJ, ref.HarvestedJ)
			}
			if d := math.Abs(r.LastSourceI - ref.LastSourceI); d > 1e-12+1e-8*math.Abs(ref.LastSourceI) {
				t.Errorf("LastSourceI: closed form %.6g vs stepwise %.6g", r.LastSourceI, ref.LastSourceI)
			}
			if d := math.Abs(r.Now() - ref.Now()); d > 0 {
				t.Errorf("clock: closed form %.17g vs stepwise %.17g", r.Now(), ref.Now())
			}
		})
	}
}

func TestPeekDrivenDoesNotMutate(t *testing.T) {
	cap := NewCapacitor(10e-6, 0.5)
	cap.LeakR = 50e3
	r := NewRail(cap)
	r.VSource = &source.ConstantVoltage{V: 3.3, Rs: 100}
	v, ok := r.PeekDriven(10000, 5e-6, 1e-6, 3.3)
	if !ok {
		t.Fatal("stable recurrence refused")
	}
	if v <= 0.5 {
		t.Errorf("predicted voltage %.3f should have charged", v)
	}
	if r.V() != 0.5 || r.Now() != 0 || r.ConsumedJ != 0 || r.HarvestedJ != 0 {
		t.Error("PeekDriven mutated the rail")
	}
	got := r.AdvanceDriven(10000, 5e-6, 1e-6, 3.3)
	if got != v {
		t.Errorf("AdvanceDriven %.12f disagrees with PeekDriven %.12f", got, v)
	}
}

func TestPeekDrivenUnstableRegimeRefuses(t *testing.T) {
	// dt comparable to the source RC constant drives the Euler factor
	// a ≤ 0: the closed form must refuse so the caller integrates
	// stepwise (there is no silent fallback on the driven path — a hop
	// is only committed after PeekDriven accepts).
	cap := NewCapacitor(1e-6, 1.0)
	r := NewRail(cap)
	r.VSource = &source.ConstantVoltage{V: 3.3, Rs: 1} // RC = 1 µs < dt
	if _, ok := r.PeekDriven(10, 5e-6, 0, 3.3); ok {
		t.Error("unstable recurrence accepted")
	}
	if r.V() != 1.0 {
		t.Error("refusal mutated the rail")
	}
}
