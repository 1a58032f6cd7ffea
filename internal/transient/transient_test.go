package transient

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/programs"
	"repro/internal/source"
	"repro/internal/units"
)

// intermittentSetup is the shared testbed: a 3.3 V square-wave supply with
// 4 ms on / 150 ms off, a 10 µF rail with 50 kΩ leakage, and a sieve-3000
// workload (~21 ms at 8 MHz — longer than any uninterrupted window, so
// nothing completes without state retention across outages; the 3 KiB flag
// array also fits the 4 KiB SRAM).
func intermittentSetup(mk func(d *mcu.Device) mcu.Runtime) lab.Setup {
	return lab.Setup{
		Workload:    programs.Sieve(3000, programs.DefaultLayout()),
		Params:      mcu.DefaultParams(),
		MakeRuntime: mk,
		VSource:     &source.SquareWaveVoltage{High: 3.3, OnTime: 0.004, OffTime: 0.150, Rs: 100},
		C:           10e-6,
		LeakR:       50e3,
		Duration:    3.0,
	}
}

func TestBaselineNeverCompletesLongWorkload(t *testing.T) {
	res, err := lab.Run(intermittentSetup(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions != 0 {
		t.Errorf("bare device completed %d iterations across outages; the workload should not fit in one window", res.Completions)
	}
	if res.Stats.BrownOuts < 10 {
		t.Errorf("expected many brown-outs, got %d", res.Stats.BrownOuts)
	}
	if res.Stats.ColdStarts < 10 {
		t.Errorf("every power-on should cold start, got %d", res.Stats.ColdStarts)
	}
}

func TestHibernusCompletesAcrossOutages(t *testing.T) {
	var h *Hibernus
	res, err := lab.Run(intermittentSetup(func(d *mcu.Device) mcu.Runtime {
		h = NewHibernus(d, 10e-6, 1.1, 0.35)
		return h
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions < 3 {
		t.Errorf("hibernus completions = %d, want ≥3", res.Completions)
	}
	if res.WrongResults != 0 {
		t.Errorf("%d wrong results — state corruption across restores", res.WrongResults)
	}
	if res.Stats.Restores == 0 {
		t.Error("hibernus never restored a snapshot")
	}
	if res.RuntimeErr != nil {
		t.Errorf("guest fault: %v", res.RuntimeErr)
	}
}

func TestHibernusOneSnapshotPerOutage(t *testing.T) {
	// The paper: hibernus "usually only makes a single snapshot per supply
	// failure". Count supply periods and compare.
	s := intermittentSetup(func(d *mcu.Device) mcu.Runtime {
		return NewHibernus(d, 10e-6, 1.1, 0.35)
	})
	res, err := lab.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	periods := int(s.Duration / (0.004 + 0.150)) // ≈19
	if res.Stats.SavesDone < periods-3 || res.Stats.SavesDone > periods+3 {
		t.Errorf("snapshots = %d over %d supply periods; hibernus should take ≈1 per outage",
			res.Stats.SavesDone, periods)
	}
}

func TestMementosRedundantSnapshots(t *testing.T) {
	// Same supply: Mementos checkpoints at every loop latch below its
	// threshold, so it takes several snapshots per outage where hibernus
	// takes one, and still completes (more slowly) thanks to restore.
	var m *Mementos
	resM, err := lab.Run(intermittentSetup(func(d *mcu.Device) mcu.Runtime {
		m = NewMementos(d, 2.2)
		return m
	}))
	if err != nil {
		t.Fatal(err)
	}
	resH, err := lab.Run(intermittentSetup(func(d *mcu.Device) mcu.Runtime {
		return NewHibernus(d, 10e-6, 1.1, 0.35)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if resM.WrongResults != 0 {
		t.Errorf("mementos produced %d wrong results", resM.WrongResults)
	}
	if resM.Completions == 0 {
		t.Error("mementos made no progress at all")
	}
	if float64(resM.Stats.SavesStarted) < 1.5*float64(resH.Stats.SavesStarted) {
		t.Errorf("mementos saves (%d) should exceed hibernus (%d) by ≥1.5× — redundant snapshots",
			resM.Stats.SavesStarted, resH.Stats.SavesStarted)
	}
	// Snapshot efficiency: hibernus spends fewer snapshots per unit of
	// completed work (the paper's "removes wasted snapshots" claim).
	if resH.Completions > 0 && resM.Completions > 0 {
		perH := float64(resH.Stats.SavesStarted) / float64(resH.Completions)
		perM := float64(resM.Stats.SavesStarted) / float64(resM.Completions)
		if perH >= perM {
			t.Errorf("snapshots per completion: hibernus %.1f should be below mementos %.1f", perH, perM)
		}
	}
}

func TestQuickRecallRegisterOnlySnapshots(t *testing.T) {
	s := intermittentSetup(func(d *mcu.Device) mcu.Runtime {
		return NewQuickRecall(d, 10e-6, 1.1, 0.35)
	})
	s.Workload = programs.Sieve(3000, programs.UnifiedNVLayout())
	s.Params = mcu.UnifiedNVParams()
	res, err := lab.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions < 3 {
		t.Errorf("quickrecall completions = %d, want ≥3", res.Completions)
	}
	if res.WrongResults != 0 {
		t.Errorf("%d wrong results under unified NV", res.WrongResults)
	}
	if res.Stats.Restores == 0 {
		t.Error("quickrecall never restored")
	}
}

func TestHibernusPPSurvivesUnknownCapacitance(t *testing.T) {
	// hibernus calibrated for a 47 µF rail but deployed on 4.7 µF: V_H is
	// far too low, every snapshot is cut off by the brown-out, and no
	// progress survives an outage. hibernus++ self-calibrates on the same
	// rail and completes. (Paper §III: "if there is less storage than it
	// was pre-characterised for, hibernus++ will still operate, whereas
	// hibernus ... will no longer be able to operate correctly".)
	mis := intermittentSetup(func(d *mcu.Device) mcu.Runtime {
		return NewHibernus(d, 47e-6, 1.0, 0.35) // wrong C: thinks 47 µF
	})
	mis.C = 4.7e-6
	resMis, err := lab.Run(mis)
	if err != nil {
		t.Fatal(err)
	}
	if resMis.Completions != 0 {
		t.Errorf("mischaracterised hibernus completed %d times; expected failure", resMis.Completions)
	}
	if resMis.Stats.SavesAborted == 0 {
		t.Error("expected snapshots to be cut off by brown-outs")
	}

	pp := intermittentSetup(func(d *mcu.Device) mcu.Runtime {
		return NewHibernusPP(d)
	})
	pp.C = 4.7e-6
	resPP, err := lab.Run(pp)
	if err != nil {
		t.Fatal(err)
	}
	if resPP.Completions == 0 {
		t.Error("hibernus++ failed on the same rail it should self-calibrate to")
	}
	if resPP.WrongResults != 0 {
		t.Errorf("hibernus++ produced %d wrong results", resPP.WrongResults)
	}
}

func TestHibernusPPCalibrationConverges(t *testing.T) {
	var pp *HibernusPP
	s := intermittentSetup(func(d *mcu.Device) mcu.Runtime {
		pp = NewHibernusPP(d)
		return pp
	})
	if _, err := lab.Run(s); err != nil {
		t.Fatal(err)
	}
	if pp.Calibrations < 2 {
		t.Fatalf("calibrations = %d, want ≥2", pp.Calibrations)
	}
	// Converged V_H should be in a sane band: above the device floor plus
	// the measured drop, below the initial conservative guess.
	if pp.VH <= 1.8 || pp.VH >= 2.8 {
		t.Errorf("converged V_H = %.3f, want within (1.8, 2.8)", pp.VH)
	}
	if pp.VR <= pp.VH {
		t.Errorf("V_R (%.3f) must stay above V_H (%.3f)", pp.VR, pp.VH)
	}
}

func TestHibernusWakesWithoutRestoreOnShallowDip(t *testing.T) {
	// Supply dips below V_H but the rail never browns out: hibernus
	// snapshots, sleeps through the dip, and WAKES — no restore, no
	// reboot. This is the "usually only makes a single snapshot ...
	// ensures a valid snapshot" efficiency path.
	var h *Hibernus
	s := lab.Setup{
		Workload: programs.FFT(64, programs.DefaultLayout()),
		Params:   mcu.DefaultParams(),
		MakeRuntime: func(d *mcu.Device) mcu.Runtime {
			h = NewHibernus(d, 10e-6, 1.1, 0.35)
			return h
		},
		VSource:  &source.SquareWaveVoltage{High: 3.3, OnTime: 0.030, OffTime: 0.025, Rs: 100},
		C:        10e-6,
		Duration: 1.0,
	}
	res, err := lab.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BrownOuts != 0 {
		t.Fatalf("rail browned out %d times; dip was meant to be shallow", res.Stats.BrownOuts)
	}
	if res.Stats.WakeNoRestore == 0 {
		t.Error("hibernus never took the wake-without-restore fast path")
	}
	if res.Stats.Restores != 0 {
		t.Errorf("restores = %d, want 0 (state never lost)", res.Stats.Restores)
	}
	if res.Completions == 0 {
		t.Error("no completions across shallow dips")
	}
}

func TestHibernusCalibrationSatisfiesEq4(t *testing.T) {
	// The calibrated V_H must leave at least E_s of energy between V_H and
	// V_min on the rail capacitance (eq. 4), including the guard margin.
	for _, c := range []float64{4.7e-6, 10e-6, 100e-6, 6e-3} {
		d := deviceForCalibration(t)
		h := NewHibernus(d, c, 1.0, 0.3)
		es := d.EstimateSnapshotEnergy(3.0, d.DefaultSnapshotKind())
		budget := units.EnergyBetween(c, h.VH, d.P.VOff)
		if budget < es*0.999 {
			t.Errorf("C=%s: budget %.3g J < E_s %.3g J — eq. 4 violated",
				units.Format(c, "F"), budget, es)
		}
		// Larger C ⇒ lower V_H (threshold approaches V_min).
		if c >= 100e-6 && h.VH > 2.0 {
			t.Errorf("C=%s: V_H=%.3f should be near V_min for big storage", units.Format(c, "F"), h.VH)
		}
	}
}

// deviceForCalibration builds a throwaway device for threshold math.
func deviceForCalibration(t *testing.T) *mcu.Device {
	t.Helper()
	w := programs.Fib(5, programs.DefaultLayout())
	prog, err := isa.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	return mcu.New(mcu.DefaultParams(), prog)
}

func TestCrossoverFrequencyEq5(t *testing.T) {
	// eq. (5): f = (P_FRAM − P_SRAM)/(E_hib − E_qr).
	got := CrossoverFrequency(4e-3, 3.5e-3, 10e-6, 1e-6)
	want := 0.5e-3 / 9e-6 // ≈ 55.6 Hz
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("crossover = %g, want %g", got, want)
	}
	// Non-positive denominator: QuickRecall never wins → +Inf.
	if !math.IsInf(CrossoverFrequency(4e-3, 3e-3, 1e-6, 2e-6), 1) {
		t.Error("expected +Inf when E_hib ≤ E_qr")
	}
}

// TestRuntimeNames: each registry name builds its own runtime type.
func TestRuntimeNames(t *testing.T) {
	d := deviceForCalibration(t)
	checks := map[string]mcu.Runtime{
		"hibernus":    NewHibernus(d, 10e-6, 1.1, 0.3),
		"hibernus++":  NewHibernusPP(d),
		"mementos":    NewMementos(d, 2.5),
		"quickrecall": NewQuickRecall(d, 10e-6, 1.1, 0.3),
		"nvp":         NewNVP(d, 10e-6, 1.1, 0.3),
	}
	for name, want := range checks {
		mk, _, err := RuntimeFactory(name, 10e-6, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := mk(d); reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Errorf("runtime %q builds a %T, want %T", name, got, want)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() lab.Result {
		res, err := lab.Run(intermittentSetup(func(d *mcu.Device) mcu.Runtime {
			return NewHibernus(d, 10e-6, 1.1, 0.35)
		}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completions != b.Completions || a.Stats.SavesDone != b.Stats.SavesDone ||
		a.Stats.BrownOuts != b.Stats.BrownOuts || a.HarvestedJ != b.HarvestedJ {
		t.Errorf("simulation is not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
