package powerneutral

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/isa"
	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/programs"
	"repro/internal/source"
	"repro/internal/sweep"
	"repro/internal/transient"
)

// governedSetup: a 20 Hz half-wave rectified lab supply (the signal-
// generator regime hibernus was validated on) sized so the mean harvest
// (~2 mA at 3 V) sits between the MCU's 8 MHz and 16 MHz draw, a 470 µF
// rail, and a governor holding V_CC at 3.0 V.
func governedSetup(policy Policy) (lab.Setup, *Governor, *Tracker) {
	gov := NewGovernor(3.0)
	gov.Policy = policy
	gov.Hysteresis = 0.25
	tr := NewTracker()
	gen := &source.SignalGenerator{Amplitude: 4.5, Frequency: 20, Rs: 100}
	s := lab.Setup{
		Workload: programs.FFT(64, programs.DefaultLayout()),
		Params:   mcu.DefaultParams(),
		VSource:  source.HalfWave(gen, 0.2),
		C:        470e-6,
		V0:       3.0,
		Duration: 3.0,
	}
	s.OnTick = func(t float64, d *mcu.Device, rail *circuit.Rail) {
		gov.Act(t, d, rail.V())
		tr.Observe(rail, rail.V(), s.Dt)
	}
	s.Dt = 5e-6
	return s, gov, tr
}

func TestGovernorHoldsVoltageBand(t *testing.T) {
	s, gov, _ := governedSetup(HillClimb)
	inBand, total := 0, 0
	s.OnTick = func(tm float64, d *mcu.Device, rail *circuit.Rail) {
		gov.Act(tm, d, rail.V())
		if tm > 0.5 { // after settling
			total++
			if v := rail.V(); v > 2.4 && v < 3.8 {
				inBand++
			}
		}
	}
	res, err := lab.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BrownOuts != 0 {
		t.Errorf("governed system browned out %d times", res.Stats.BrownOuts)
	}
	if frac := float64(inBand) / float64(total); frac < 0.9 {
		t.Errorf("V_CC in band only %.0f%% of the time", frac*100)
	}
	if gov.UpSteps == 0 || gov.DownSteps == 0 {
		t.Errorf("governor never modulated both ways: up=%d down=%d", gov.UpSteps, gov.DownSteps)
	}
	if res.Completions == 0 {
		t.Error("governed workload made no progress")
	}
}

func TestGovernorStabilisesVoltageVsStatic(t *testing.T) {
	// Power neutrality's operational definition: V_CC stays flat. A
	// static low frequency wastes harvest (V_CC wanders up toward the
	// source peak); a static high frequency overdraws (brown-outs). The
	// governed run avoids both.
	type outcome struct {
		stats     TrackingStats
		brownOuts int
		harvested float64
		done      int
	}
	// Three independent 3-second runs — governed, static-low, static-high —
	// fan out over the sweep engine.
	variants := []struct {
		governed  bool
		staticIdx int
	}{
		{true, 0},
		{false, 0}, // 1 MHz: underdraws, wastes harvest
		{false, 5}, // 24 MHz: overdraws, rides near collapse
	}
	outs, err := sweep.Map(nil, len(variants), func(c sweep.Case) (outcome, error) {
		v := variants[c.Index]
		s, gov, tr := governedSetup(HillClimb)
		if !v.governed {
			s.Params.FreqIndex = v.staticIdx
			s.OnTick = func(tm float64, d *mcu.Device, rail *circuit.Rail) {
				tr.Observe(rail, rail.V(), s.Dt)
			}
		}
		_ = gov
		res, err := lab.Run(s)
		if err != nil {
			return outcome{}, err
		}
		return outcome{stats: tr.Stats(), brownOuts: res.Stats.BrownOuts,
			harvested: res.HarvestedJ, done: res.Completions}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	gv, low, high := outs[0], outs[1], outs[2]
	if gv.brownOuts != 0 {
		t.Errorf("governed run browned out %d times", gv.brownOuts)
	}
	// Static-high equilibrium sits far below the target band (the source
	// only balances its draw at a sagged voltage).
	if high.stats.VMin >= 2.4 {
		t.Errorf("static 24 MHz V_CC floor %.2f should sag below the band", high.stats.VMin)
	}
	// Static-low rails near the open-circuit peak, throttling the source:
	// it harvests less in total and completes less work.
	if gv.stats.VMax >= low.stats.VMax {
		t.Errorf("governed V_CC peak %.2f should stay below static-1MHz peak %.2f (wasted harvest)",
			gv.stats.VMax, low.stats.VMax)
	}
	if gv.harvested < 1.5*low.harvested {
		t.Errorf("governed harvest %.3g J should exceed static-1MHz %.3g J by ≥1.5×",
			gv.harvested, low.harvested)
	}
	if gv.done <= low.done {
		t.Errorf("governed completions (%d) should exceed static-1MHz (%d)", gv.done, low.done)
	}
}

func TestProportionalPolicyAlsoHolds(t *testing.T) {
	s, gov, tr := governedSetup(Proportional)
	res, err := lab.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BrownOuts != 0 {
		t.Errorf("proportional policy browned out %d times", res.Stats.BrownOuts)
	}
	st := tr.Stats()
	if st.RelativeError() > 1.0 {
		t.Errorf("proportional tracking error %.3f too high", st.RelativeError())
	}
	if gov.Decisions == 0 {
		t.Error("proportional governor never acted")
	}
}

// fig8Setup: the paper's Fig. 8 regime — a micro wind turbine gust,
// half-wave rectified, driving the MCU through a 330 µF rail. The static
// comparison frequency (16 MHz) deliberately overdraws the mean harvest,
// as a fixed operating point generically does ("likely to either waste
// power or draw too much").
func fig8Setup(mk func(d *mcu.Device) mcu.Runtime) lab.Setup {
	turbine := &source.WindTurbine{
		PeakVoltage: 4.5,
		ACFrequency: 8,
		GustStart:   0.3,
		GustRise:    0.5,
		GustHold:    2.2,
		GustFall:    0.8,
		Rs:          150,
	}
	p := mcu.DefaultParams()
	p.FreqIndex = 4 // 16 MHz static for the plain-hibernus baseline
	return lab.Setup{
		Workload:    programs.FFT(64, programs.DefaultLayout()),
		Params:      p,
		MakeRuntime: mk,
		VSource:     source.HalfWave(turbine, 0.2),
		C:           330e-6,
		Duration:    5.0,
	}
}

// longestActiveStretch runs a fig8 setup and reports the longest
// continuous stretch of non-interrupted operation (device neither off nor
// hibernating) together with the run result.
func longestActiveStretch(t *testing.T, mk func(d *mcu.Device) mcu.Runtime) (float64, lab.Result) {
	t.Helper()
	s := fig8Setup(mk)
	var longest, cur, last float64
	s.OnTick = func(tm float64, d *mcu.Device, rail *circuit.Rail) {
		dt := tm - last
		last = tm
		switch d.Mode() {
		case mcu.ModeActive, mcu.ModeSaving, mcu.ModeRestoring:
			cur += dt
			if cur > longest {
				longest = cur
			}
		default:
			cur = 0
		}
	}
	res, err := lab.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return longest, res
}

func TestHibernusPNAvoidsInterruptionOverheads(t *testing.T) {
	// Paper Fig. 8: DFS modulation lets the PN system ride the supply
	// without V_CC being interrupted — fewer snapshots and a much longer
	// uninterrupted operating window than static-frequency hibernus.
	plainStretch, plain := longestActiveStretch(t, func(d *mcu.Device) mcu.Runtime {
		return transient.NewHibernus(d, 330e-6, 1.1, 0.35)
	})
	var pnH *HibernusPN
	pnStretch, pn := longestActiveStretch(t, func(d *mcu.Device) mcu.Runtime {
		pnH = NewHibernusPN(d, 330e-6, 1.1, 0.35, 3.0)
		return pnH
	})
	if pn.WrongResults != 0 || plain.WrongResults != 0 {
		t.Fatalf("wrong results: pn=%d plain=%d", pn.WrongResults, plain.WrongResults)
	}
	if pn.Stats.SavesStarted >= plain.Stats.SavesStarted {
		t.Errorf("hibernus-PN snapshots (%d) should be below plain hibernus (%d)",
			pn.Stats.SavesStarted, plain.Stats.SavesStarted)
	}
	if pnStretch < 2*plainStretch {
		t.Errorf("PN uninterrupted window %.2fs should dwarf plain hibernus %.2fs",
			pnStretch, plainStretch)
	}
	if pn.Completions < 50 {
		t.Errorf("PN completions = %d, want ≥50 across the gust", pn.Completions)
	}
	if pnH.Gov.Decisions == 0 {
		t.Error("PN governor never acted")
	}
}

func TestHibernusPNSurvivesGustTrough(t *testing.T) {
	res, err := lab.Run(fig8Setup(func(d *mcu.Device) mcu.Runtime {
		return NewHibernusPN(d, 330e-6, 1.1, 0.35, 3.0)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions < 5 {
		t.Errorf("completions = %d, want ≥5 during the gust", res.Completions)
	}
	if res.RuntimeErr != nil {
		t.Errorf("guest fault: %v", res.RuntimeErr)
	}
}

func TestHibernusPNOptsOutOfSleepFastForward(t *testing.T) {
	// Embedding Hibernus would promote its WakeThreshold and silently make
	// the PN runtime eligible for sleep fast-forwarding — but the governor
	// does bookkeeping on every tick, so PN must shadow the method with an
	// always-ineligible threshold.
	var pn HibernusPN
	if !math.IsInf(mcu.SleepWaker(&pn).WakeThreshold(), -1) {
		t.Errorf("HibernusPN.WakeThreshold() = %v, want -Inf (opt-out)",
			pn.WakeThreshold())
	}
}

// resistor is a test load drawing V/R, R in ohms.
type resistor float64

func (r resistor) Current(v, _ float64) float64 { return v / float64(r) }

func TestTrackerStats(t *testing.T) {
	tr := NewTracker()
	if !math.IsInf(tr.Stats().RelativeError(), 1) {
		t.Error("empty tracker should report infinite error")
	}
	cap := circuit.NewCapacitor(1e-6, 3)
	rail := circuit.NewRail(cap)
	rail.VSource = &source.ConstantVoltage{V: 3.3, Rs: 100}
	rail.AddLoad(resistor(1000))
	tr.Window = 1e-4
	for i := 0; i < 1000; i++ {
		rail.Step(1e-5)
		tr.Observe(rail, rail.V(), 1e-5)
	}
	st := tr.Stats()
	if st.Windows != 100 {
		t.Errorf("windows = %d, want 100", st.Windows)
	}
	if st.VMin > st.VMax {
		t.Error("voltage range inverted")
	}
	if st.MeanHarvestJ <= 0 {
		t.Error("no harvest recorded")
	}
	if st.VRange() < 0 {
		t.Error("negative V range")
	}
}

func TestGovernorIgnoresSleepingDevice(t *testing.T) {
	// The governor must not actuate DFS while the device is saving or
	// sleeping (consumption there is not frequency-bound).
	s, gov, _ := governedSetup(HillClimb)
	s.MakeRuntime = func(d *mcu.Device) mcu.Runtime {
		return transient.NewHibernus(d, 470e-6, 1.1, 0.35)
	}
	// Kill the supply after 1 s: hibernus sleeps, governor must go quiet.
	gen := &source.SignalGenerator{Amplitude: 4.5, Frequency: 20, Rs: 100}
	s.VSource = &source.GatedVoltage{
		Source:  source.HalfWave(gen, 0.2),
		Windows: [][2]float64{{0, 1.0}},
	}
	decisionsLate := 0
	s.OnTick = func(tm float64, d *mcu.Device, rail *circuit.Rail) {
		before := gov.Decisions
		gov.Act(tm, d, rail.V())
		if tm > 1.5 && gov.Decisions > before && d.Mode() != mcu.ModeActive {
			decisionsLate++
		}
	}
	if _, err := lab.Run(s); err != nil {
		t.Fatal(err)
	}
	if decisionsLate != 0 {
		t.Errorf("governor made %d decisions on a non-active device", decisionsLate)
	}
}

// Regression: the Proportional policy used to compare the raw
// (unclamped) target index against the current level, so a device
// already pinned at a rail extreme counted an Up/DownStep on every
// decision even though SetFreqIndex clamped the actuation to a no-op.
func TestProportionalClampsTelemetryAtRailExtremes(t *testing.T) {
	prog, err := isa.Assemble(programs.FFT(64, programs.DefaultLayout()).Source)
	if err != nil {
		t.Fatal(err)
	}
	top := len(mcu.DefaultParams().FreqLevels) - 1

	// High rail, device already at the top level: the raw index lands
	// beyond the table, the clamped actuation is a no-op, and the
	// telemetry must not count it as an up-step.
	p := mcu.DefaultParams()
	p.FreqIndex = top
	d := mcu.New(p, prog)
	d.ColdStart()
	gov := NewGovernor(3.0)
	gov.Policy = Proportional
	gov.Act(0, d, 10) // first call arms the period clock
	gov.Act(1, d, 10) // far above the band
	if gov.UpSteps != 0 {
		t.Errorf("clamped no-op at the top rail counted UpSteps=%d, want 0", gov.UpSteps)
	}
	if d.FreqIndex() != top {
		t.Fatalf("device moved off the top level: %d", d.FreqIndex())
	}

	// Low rail, device already at the bottom level: same, downward.
	p = mcu.DefaultParams()
	p.FreqIndex = 0
	d = mcu.New(p, prog)
	d.ColdStart()
	gov = NewGovernor(3.0)
	gov.Policy = Proportional
	gov.Act(0, d, 0)
	gov.Act(1, d, 0) // far below the band
	if gov.DownSteps != 0 {
		t.Errorf("clamped no-op at the bottom rail counted DownSteps=%d, want 0", gov.DownSteps)
	}
	if d.FreqIndex() != 0 {
		t.Fatalf("device moved off the bottom level: %d", d.FreqIndex())
	}

	// Sanity: a genuine move still counts exactly once.
	gov.Act(2, d, 10)
	if gov.UpSteps != 1 || d.FreqIndex() != top {
		t.Errorf("real move: UpSteps=%d freq=%d, want 1 and %d", gov.UpSteps, d.FreqIndex(), top)
	}
}
