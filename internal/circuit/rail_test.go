package circuit

import (
	"math"
	"testing"

	"repro/internal/source"
)

// run steps r until time end, calling observe (if non-nil) after every
// step. The step count is fixed up front so drift in the clock cannot
// add or drop a step.
func run(r *Rail, end, dt float64, observe func(t, v float64)) {
	n := int(math.Round((end - r.Now()) / dt))
	for range n {
		v := r.Step(dt)
		if observe != nil {
			observe(r.Now(), v)
		}
	}
}

// resistor is a test load drawing V/R, R in ohms.
type resistor float64

func (r resistor) Current(v, _ float64) float64 { return v / float64(r) }

func TestRailChargesFromVoltageSource(t *testing.T) {
	// DC source charging RC: V(t) = Vs(1 - e^{-t/RC}).
	cap := NewCapacitor(100e-6, 0)
	r := NewRail(cap)
	r.VSource = &source.ConstantVoltage{V: 3.0, Rs: 1000} // τ = 100 ms
	run(r, 0.1, 10e-6, nil)
	want := 3.0 * (1 - math.Exp(-1))
	if math.Abs(cap.V-want)/want > 0.005 {
		t.Errorf("RC charge after τ: V = %g, want ≈%g", cap.V, want)
	}
}

func TestRailDiodeBlocksReverse(t *testing.T) {
	// Cap pre-charged above the source: no discharge through the source.
	cap := NewCapacitor(100e-6, 3.0)
	r := NewRail(cap)
	r.VSource = &source.ConstantVoltage{V: 1.0, Rs: 100}
	run(r, 0.05, 10e-6, nil)
	if cap.V < 3.0-1e-9 {
		t.Errorf("diode leaked: V = %g", cap.V)
	}
}

func TestRailPowerSourceCurrentLimit(t *testing.T) {
	cap := NewCapacitor(100e-6, 0)
	r := NewRail(cap)
	r.PSource = &source.ConstantPower{P: 10} // would be 100 A at 0.1 V
	v := r.Step(1e-5)
	// ΔV = I·dt/C = 1·1e-5/100e-6 = 0.1 V at the converter's 1 A limit.
	if math.Abs(v-0.1) > 1e-9 {
		t.Errorf("current-limited step V = %g, want 0.1", v)
	}
}

func TestRailLoadDischarges(t *testing.T) {
	cap := NewCapacitor(100e-6, 3.0)
	r := NewRail(cap)
	r.AddLoad(&ConstantCurrentLoad{I: 1e-3, VMin: 1.0})
	run(r, 0.1, 10e-6, nil) // 1 mA for 100 ms = 1 V drop
	if math.Abs(cap.V-2.0) > 1e-6 {
		t.Errorf("V after discharge = %g, want 2.0", cap.V)
	}
	// Load cuts out below VMin.
	run(r, 0.3, 10e-6, nil)
	if cap.V < 1.0-1e-6 {
		t.Errorf("load drew below its VMin: %g", cap.V)
	}
}

func TestRailEnergyAccounting(t *testing.T) {
	// Source energy in = capacitor energy + load energy (no leakage).
	cap := NewCapacitor(470e-6, 0)
	r := NewRail(cap)
	r.VSource = &source.ConstantVoltage{V: 3.3, Rs: 100}
	r.AddLoad(resistor(10e3))
	run(r, 0.5, 5e-6, nil)
	// HarvestedJ counts energy into the node (after the source resistance
	// loss), so it must equal stored + consumed.
	balance := cap.Energy() + r.ConsumedJ
	if !approxEqual(r.HarvestedJ, balance, 0.01) {
		t.Errorf("energy imbalance: harvested %g vs stored+consumed %g",
			r.HarvestedJ, balance)
	}
}

func TestRailObserveCallback(t *testing.T) {
	cap := NewCapacitor(1e-6, 1)
	r := NewRail(cap)
	n := 0
	var lastT float64
	run(r, 0.001, 1e-4, func(tm, v float64) {
		n++
		if tm <= lastT {
			t.Fatal("time must advance monotonically")
		}
		lastT = tm
	})
	if n != 10 {
		t.Errorf("observe called %d times, want 10", n)
	}
	if math.Abs(r.Now()-0.001) > 1e-12 {
		t.Errorf("Now() = %g, want 0.001", r.Now())
	}
}

func TestRailHalfWaveRectifiedSineShape(t *testing.T) {
	// The Fig. 7 supply: half-wave rectified sine charges the cap each
	// positive half-cycle; with a load, V ripples between charge peaks.
	gen := &source.SignalGenerator{Amplitude: 3.6, Frequency: 4.7, Rs: 200}
	cap := NewCapacitor(22e-6, 0)
	r := NewRail(cap)
	r.VSource = source.HalfWave(gen, 0.2)
	r.AddLoad(&ConstantCurrentLoad{I: 500e-6, VMin: 1.8})
	var minV, maxV float64 = math.Inf(1), math.Inf(-1)
	run(r, 2.0, 5e-6, func(tm, v float64) {
		if tm > 0.5 { // after initial charge
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
	})
	if maxV < 2.5 {
		t.Errorf("rail never charged: max %g", maxV)
	}
	if maxV-minV < 0.2 {
		t.Errorf("expected ripple across half-cycles, got %g..%g", minV, maxV)
	}
}

// TestRailSampleTable: a rail on a rectified sine reads the shared sample
// table bit-identically to sampling the source: a stepwise run that
// builds the table, then runs that read it across a closed-form hop and
// a change of step, which leaves the table for good. The reference hides
// the source's type, so it never reaches a table.
func TestRailSampleTable(t *testing.T) {
	const dt = 5e-6
	// A series resistance no other test uses, so the first run is cold.
	vs := source.HalfWave(&source.SignalGenerator{Amplitude: 3.6, Frequency: 20, Rs: 150.03125}, 0.2)
	type state struct{ now, v, harvested, consumed, lastSrc, lastLoad float64 }
	newRail := func(src source.VoltageSource) *Rail {
		cap := NewCapacitor(10e-6, 0)
		cap.LeakR = 50e3
		r := NewRail(cap)
		r.VSource = src
		r.AddLoad(&ConstantCurrentLoad{I: 1e-3, VMin: 1.8})
		return r
	}
	stateOf := func(r *Rail) state {
		return state{r.now, r.Cap.V, r.HarvestedJ, r.ConsumedJ, r.LastSourceI, r.LastLoadI}
	}
	steps := func(r *Rail, n int, dt float64) {
		for range n {
			r.Step(dt)
		}
	}
	// stepwise runs 10,000 steps: the first run builds the table.
	stepwise := func(src source.VoltageSource) state {
		r := newRail(src)
		r.ExpectSteps(10000)
		steps(r, 10000, dt)
		return stateOf(r)
	}
	// hopping steps, hops 200 steps in closed form, steps on, then
	// doubles its step for a while, all inside the table's span and on
	// the rising edge of the first half-wave, where the diode conducts,
	// so a sample read at the wrong instant moves the rail.
	hopping := func(src source.VoltageSource) state {
		r := newRail(src)
		steps(r, 400, dt)
		r.AdvanceIdle(200, dt, 1e-6)
		steps(r, 400, dt)
		steps(r, 300, 2*dt)
		steps(r, 500, dt)
		return stateOf(r)
	}
	hidden := struct{ source.VoltageSource }{vs}
	want := stepwise(hidden)
	for pass := range 2 {
		if got := stepwise(vs); got != want {
			t.Fatalf("stepwise run %d: %+v, want %+v", pass+1, got, want)
		}
	}
	if got, want := hopping(vs), hopping(hidden); got != want {
		t.Fatalf("run with a hop and a step change: %+v, want %+v", got, want)
	}
}
