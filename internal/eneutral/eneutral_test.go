package eneutral

import (
	"math"
	"testing"

	"repro/internal/source"
	"repro/internal/sweep"
	"repro/internal/units"
)

// solarHarvest returns the Fig. 1(b)-scale indoor PV source (≈0.7–1.1 mW).
func solarHarvest() source.PowerSource {
	return source.DefaultPhotovoltaic()
}

func TestAdaptiveNodeIsEnergyNeutral(t *testing.T) {
	// Over each 24 h window the Kansal-controlled node must balance
	// consumption against harvest (eq. 1) within 15 % and never violate
	// eq. (2). Battery: 20 J ≈ 6 mAh at 3.3 V aggregate-scale model.
	n := NewNode(20, 0.6, solarHarvest())
	// Scale the load to the indoor-PV harvest (~1 mW): 3 mW active.
	n.PActive = 3e-3
	n.PSleep = 3e-6
	n.Controller = NewKansal()
	sim := NewSim(n, 4*units.Day, 10, units.Day)
	sim.Step(0)
	res := sim.Result()
	if res.Violations != 0 {
		t.Errorf("eq. (2) violated %d times", res.Violations)
	}
	if len(res.Windows) < 3 {
		t.Fatalf("only %d neutrality windows evaluated", len(res.Windows))
	}
	// Skip the first window (controller converging).
	for i, w := range res.Windows[1:] {
		if w > 0.15 {
			t.Errorf("window %d: eq. (1) imbalance %.1f%%, want ≤15%%", i+1, w*100)
		}
	}
	if res.FinalSoC < 0.3 || res.FinalSoC > 0.9 {
		t.Errorf("final SoC %.2f drifted out of the sustainable band", res.FinalSoC)
	}
}

func TestOverAggressiveFixedDutyViolatesEq2(t *testing.T) {
	// A fixed duty cycle consuming more than the harvest drains the
	// battery and kills the node — the failure mode energy-neutral
	// adaptation exists to avoid.
	n := NewNode(20, 0.6, solarHarvest())
	n.PActive = 3e-3
	n.PSleep = 3e-6
	n.Duty = 0.8 // 2.4 mW demand against ≈1 mW harvest
	n.Controller = &FixedController{Value: 0.8}
	sim := NewSim(n, 4*units.Day, 10, units.Day)
	sim.Step(0)
	res := sim.Result()
	if res.Violations == 0 {
		t.Error("over-aggressive fixed duty should deplete the battery (eq. 2)")
	}
	if res.DowntimeSec == 0 {
		t.Error("depleted node should accumulate downtime")
	}
}

func TestConservativeFixedDutyWastesHarvest(t *testing.T) {
	// The opposite mis-design: a tiny fixed duty survives but does far
	// less work than the adaptive node on the same energy input. The two
	// four-day simulations are independent, so they run as a sweep.
	variants := []struct {
		ctl  func() Controller
		duty float64
	}{
		{func() Controller { return NewKansal() }, 0.2},
		{func() Controller { return &FixedController{Value: 0.02} }, 0.02},
	}
	outs, err := sweep.Map(nil, len(variants), func(c sweep.Case) (Result, error) {
		v := variants[c.Index]
		n := NewNode(20, 0.6, solarHarvest())
		n.PActive = 3e-3
		n.PSleep = 3e-6
		n.Duty = v.duty
		n.Controller = v.ctl()
		sim := NewSim(n, 4*units.Day, 10, units.Day)
		sim.Step(0)
		return sim.Result(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, timid := outs[0], outs[1]
	if timid.Violations != 0 {
		t.Fatal("timid duty should at least survive")
	}
	if adaptive.ActiveSec < 2*timid.ActiveSec {
		t.Errorf("adaptive productive time %.0fs should dwarf timid %.0fs",
			adaptive.ActiveSec, timid.ActiveSec)
	}
}

func TestKansalTracksDiurnalCycle(t *testing.T) {
	// The duty trace must rise during the day and fall at night —
	// consumption following harvest is the essence of eq. (1) adaptation.
	n := NewNode(20, 0.6, solarHarvest())
	n.PActive = 3e-3
	n.PSleep = 3e-6
	n.Controller = NewKansal()
	sim := NewSim(n, 2*units.Day, 10, units.Day)
	sim.Step(0)
	res := sim.Result()
	if len(res.DutyTrace) < 40 {
		t.Fatalf("duty trace too short: %d", len(res.DutyTrace))
	}
	// Hour-indexed trace (hourly control): compare midday vs 4 am on day 2.
	day2 := res.DutyTrace[24:]
	if len(day2) < 15 {
		t.Fatal("trace does not cover day 2")
	}
	night := day2[3]   // ≈ 04:00
	midday := day2[12] // ≈ 13:00
	if midday <= night {
		t.Errorf("midday duty %.3f should exceed night duty %.3f", midday, night)
	}
}

func TestNodeRevivesAfterDepletion(t *testing.T) {
	// A dead node must come back once the battery recovers.
	n := NewNode(5, 0.02, solarHarvest())
	n.PActive = 3e-3
	n.PSleep = 3e-6
	n.Duty = 0.5
	n.Controller = NewKansal()
	sim := NewSim(n, 2*units.Day, 10, units.Day)
	sim.Step(0)
	res := sim.Result()
	if res.DowntimeSec == 0 {
		t.Skip("node never died; nothing to test")
	}
	if res.ActiveSec == 0 {
		t.Error("node never revived after depletion")
	}
}

func TestWorstWindowEmpty(t *testing.T) {
	var r Result
	if !math.IsInf(r.WorstWindow(), 1) {
		t.Error("no windows should report +Inf")
	}
	r.Windows = []float64{0.1, 0.4, 0.2}
	if r.WorstWindow() != 0.4 {
		t.Errorf("worst window = %g", r.WorstWindow())
	}
}

func TestControllerNames(t *testing.T) {
	if NewKansal().Name() != "kansal-adaptive" {
		t.Error("kansal name")
	}
	if (&FixedController{}).Name() != "fixed-duty" {
		t.Error("fixed name")
	}
}

func TestSimulationDeterminism(t *testing.T) {
	run := func() Result {
		n := NewNode(20, 0.6, solarHarvest())
		n.PActive = 3e-3
		n.PSleep = 3e-6
		n.Controller = NewKansal()
		sim := NewSim(n, units.Day, 10, units.Day)
		sim.Step(0)
		return sim.Result()
	}
	a, b := run(), run()
	if a.HarvestedJ != b.HarvestedJ || a.ConsumedJ != b.ConsumedJ ||
		a.Violations != b.Violations {
		t.Error("energy-neutral simulation is not deterministic")
	}
}
