package experiments

import (
	"fmt"
	"math"

	"repro/examples"
	"repro/internal/circuit"
	"repro/internal/eneutral"
	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/powerneutral"
	"repro/internal/programs"
	"repro/internal/scenario"
	"repro/internal/source"
	"repro/internal/sweep"
	"repro/internal/transient"
	"repro/internal/units"
)

func init() {
	register(Experiment{
		ID:    "eq1",
		Title: "Energy-neutral WSN: adaptive duty-cycling satisfies eq. (1)/(2) where fixed duty fails",
		Run:   runEq1,
	})
	register(Experiment{
		ID:    "eq3",
		Title: "Power-neutral tracking quality vs storage size",
		Run:   runEq3,
	})
	register(Experiment{
		ID:    "eq4",
		Title: "Hibernate-threshold boundary: eq. (4) margins vs snapshot survival",
		Run:   runEq4,
	})
	register(Experiment{
		ID:    "eq5",
		Title: "hibernus vs QuickRecall crossover frequency",
		Run:   runEq5,
	})
	register(Experiment{
		ID:    "runtimes",
		Title: "Transient runtime comparison on a common intermittent supply",
		Run:   runRuntimes,
	})
}

// runEq1 pits the Kansal-adaptive node against fixed-duty baselines over
// four solar days.
func runEq1() (*Output, error) {
	variants := []struct {
		ctl  func() eneutral.Controller
		duty float64
	}{
		{func() eneutral.Controller { return eneutral.NewKansal() }, 0.2},
		{func() eneutral.Controller { return &eneutral.FixedController{Value: 0.8} }, 0.8},
		{func() eneutral.Controller { return &eneutral.FixedController{Value: 0.02} }, 0.02},
	}
	results, err := sweep.Map(nil, len(variants), func(c sweep.Case) (eneutral.Result, error) {
		v := variants[c.Index]
		n := eneutral.NewNode(20, 0.6, source.DefaultPhotovoltaic())
		n.PActive = 3e-3
		n.PSleep = 3e-6
		n.Duty = v.duty
		n.Controller = v.ctl()
		sim := eneutral.NewSim(n, 4*units.Day, 10, units.Day)
		sim.Step(0)
		return sim.Result(), nil
	})
	if err != nil {
		return nil, err
	}
	adaptive, greedy, timid := results[0], results[1], results[2]

	row := func(name string, r eneutral.Result) []string {
		return []string{
			name,
			fmt.Sprintf("%.1f%%", r.WorstWindow()*100),
			fmt.Sprintf("%d", r.Violations),
			fmt.Sprintf("%.1f h", r.DowntimeSec/3600),
			fmt.Sprintf("%.1f h", r.ActiveSec/3600),
			fmt.Sprintf("%.2f", r.FinalSoC),
		}
	}
	tbl := Table{
		Title: "Four solar days, 20 J battery, 3 mW active load",
		Columns: []string{"controller", "worst eq.(1) imbalance", "eq.(2) violations",
			"downtime", "productive time", "final SoC"},
		Rows: [][]string{
			row("kansal-adaptive", adaptive),
			row("fixed 80%", greedy),
			row("fixed 2%", timid),
		},
	}
	out := &Output{
		ID:          "eq1",
		Description: "energy-neutrality over daily windows (eq. 1) and supply maintenance (eq. 2)",
		Tables:      []Table{tbl},
	}
	out.Note("adaptive: worst imbalance %.1f%%, %d violations; greedy fixed duty dies (%d violations); timid duty wastes %.0f%% of the adaptive node's productive time",
		adaptive.WorstWindow()*100, adaptive.Violations, greedy.Violations,
		100*(1-timid.ActiveSec/math.Max(adaptive.ActiveSec, 1)))
	if adaptive.Violations != 0 {
		return nil, fmt.Errorf("eq1: adaptive controller violated eq. (2)")
	}
	return out, nil
}

// runEq3 sweeps the rail capacitance under the power-neutral governor and
// quantifies the taxonomy's central trade: with minimal storage the rail
// voltage swings on every supply pulse, forcing the governor into tight
// instantaneous matching (small windowed eq. (3) error, large V_CC
// excursion pressure); with generous storage the buffer absorbs the
// mismatch and consumption needn't track harvest at short timescales at
// all — the system is drifting from power-neutral toward energy-neutral
// operation along Fig. 2's storage axis.
func runEq3() (*Output, error) {
	sp, err := examples.Scenario("powerneutral-storage-sweep")
	if err != nil {
		return nil, err
	}
	caps := sp.Sweep[0].Values
	tbl := Table{
		Title:   "Governed MCU on a 20 Hz rectified supply, V target 3.0 V",
		Columns: []string{"C", "windowed eq.(3) error", "V_CC excursion", "brown-outs", "completions"},
	}
	type eq3Out struct {
		res lab.Result
		st  powerneutral.TrackingStats
	}
	outs, err := sweep.MapGrid(nil, sp.Grid(), func(c sweep.Case) (eq3Out, error) {
		s, err := sp.SetupAt(c)
		if err != nil {
			return eq3Out{}, err
		}
		tr := powerneutral.NewTracker()
		govern, dt := s.OnTick, s.Dt
		s.OnTick = func(t float64, d *mcu.Device, rail *circuit.Rail) {
			govern(t, d, rail)
			tr.Observe(rail, rail.V(), dt)
		}
		res, err := lab.Run(s)
		if err != nil {
			return eq3Out{}, err
		}
		return eq3Out{res: res, st: tr.Stats()}, nil
	})
	if err != nil {
		return nil, err
	}
	var errs []float64
	for i, o := range outs {
		errs = append(errs, o.st.RelativeError())
		tbl.Rows = append(tbl.Rows, []string{
			units.Format(float64(caps[i]), "F"),
			fmt.Sprintf("%.3f", o.st.RelativeError()),
			fmt.Sprintf("%.2f V", o.st.VRange()),
			fmt.Sprintf("%d", o.res.Stats.BrownOuts),
			fmt.Sprintf("%d", o.res.Completions),
		})
	}
	out := &Output{
		ID:          "eq3",
		Description: "power-neutral tracking vs storage (the storage-axis continuum)",
		Tables:      []Table{tbl},
	}
	out.Note("tracking error grows from %.3f at %s to %.3f at %s: minimal storage FORCES eq. (3) to hold at short timescales, while added storage relaxes the system toward energy-neutral buffering",
		errs[0], units.Format(float64(caps[0]), "F"), errs[len(errs)-1], units.Format(float64(caps[len(caps)-1]), "F"))
	return out, nil
}

// runEq4 sweeps the guard margin on the eq. (4) threshold. Below 1.0 the
// snapshot energy budget is violated and saves are cut off; at and above
// 1.0 every save survives. Cases come from the curated eq4-margin-sweep
// spec's sweep axis; the harness wraps each compiled Setup only to
// capture the calibrated V_H.
func runEq4() (*Output, error) {
	sp, err := examples.Scenario("eq4-margin-sweep")
	if err != nil {
		return nil, err
	}
	margins := sp.Sweep[0].Values
	tbl := Table{
		Title:   "hibernus V_H margin sweep (10 µF rail, square-wave outages)",
		Columns: []string{"margin on eq.(4) V_H", "V_H", "saves started", "saves aborted", "completions"},
	}
	type eq4Out struct {
		res lab.Result
		vh  float64
	}
	outs, err := sweep.MapGrid(nil, sp.Grid(), func(c sweep.Case) (eq4Out, error) {
		s, err := sp.SetupAt(c)
		if err != nil {
			return eq4Out{}, err
		}
		var h *transient.Hibernus
		captureHibernus(&s, &h)
		res, err := lab.Run(s)
		if err != nil {
			return eq4Out{}, err
		}
		return eq4Out{res: res, vh: h.VH}, nil
	})
	if err != nil {
		return nil, err
	}
	var failBelow, okAbove bool
	for i, o := range outs {
		m, res := margins[i], o.res
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.2f", m),
			fmt.Sprintf("%.2f V", o.vh),
			fmt.Sprintf("%d", res.Stats.SavesStarted),
			fmt.Sprintf("%d", res.Stats.SavesAborted),
			fmt.Sprintf("%d", res.Completions),
		})
		if m < 0.95 && res.Stats.SavesAborted > 0 {
			failBelow = true
		}
		if m >= 1.0 && res.Stats.SavesAborted == 0 && res.Completions > 0 {
			okAbove = true
		}
	}
	out := &Output{
		ID:          "eq4",
		Description: "the eq. (4) energy budget is a real boundary: under-margined thresholds abort snapshots",
		Tables:      []Table{tbl},
	}
	out.Note("saves aborted below the eq. (4) threshold: %v; clean completion at margin ≥ 1.0: %v",
		failBelow, okAbove)
	if !okAbove {
		return nil, fmt.Errorf("eq4: margin ≥ 1.0 failed to complete cleanly")
	}
	return out, nil
}

// runEq5 sweeps the supply interruption frequency and measures the energy
// per completed iteration for hibernus (split SRAM system) vs QuickRecall
// (unified FRAM system), locating the measured crossover and comparing it
// with the analytic eq. (5) prediction.
func runEq5() (*Output, error) {
	freqs := []float64{2, 5, 10, 20, 40}
	tbl := Table{
		Title:   "Energy per completed FFT-64 vs outage frequency",
		Columns: []string{"outage freq", "hibernus (µJ/op)", "quickrecall (µJ/op)", "winner"},
	}
	// Each outage frequency is one run of the curated
	// transient-fram-vs-sram spec — its runtime axis is the memory system,
	// hibernus then quickrecall — with the square supply's on- and
	// off-time both set to half the outage period.
	sp, err := examples.Scenario("transient-fram-vs-sram")
	if err != nil {
		return nil, err
	}
	reps, err := sweep.Map(nil, len(freqs), func(c sweep.Case) (*scenario.ModelReport, error) {
		cs := sp.Clone()
		half := 1.0 / freqs[c.Index] / 2
		if err := cs.Apply("source.ontime", half); err != nil {
			return nil, err
		}
		if err := cs.Apply("source.offtime", half); err != nil {
			return nil, err
		}
		return scenario.RunModel(cs, scenario.RunOptions{})
	})
	if err != nil {
		return nil, err
	}

	var hibE, qrE []float64
	for i, f := range freqs {
		h, q := reps[i].Cases[0].Lab, reps[i].Cases[1].Lab
		he := h.EnergyPerCompletion() * 1e6
		qe := q.EnergyPerCompletion() * 1e6
		hibE = append(hibE, he)
		qrE = append(qrE, qe)
		winner := "hibernus"
		if qe < he {
			winner = "quickrecall"
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.0f Hz", f),
			fmt.Sprintf("%.2f", he),
			fmt.Sprintf("%.2f", qe),
			winner,
		})
	}

	// Measured crossover: first frequency where QuickRecall wins.
	measured := math.Inf(1)
	for i, f := range freqs {
		if qrE[i] < hibE[i] {
			measured = f
			break
		}
	}
	// Analytic eq. (5) from the device parameters at 8 MHz / 3 V.
	p := mcu.DefaultParams()
	pSRAM := (p.IActiveBase + p.IActivePerMHz*8) * 3.0
	pFRAM := pSRAM + p.IFRAMExtra*3.0
	// Per-outage snapshot(+restore) energies from the device model.
	probe, err := probeDevice(false)
	if err != nil {
		return nil, err
	}
	eHib := probe.EstimateSnapshotEnergy(3.0, mcu.SnapFull) +
		probe.EstimateRestoreEnergy(3.0, mcu.SnapFull)
	probeU, err := probeDevice(true)
	if err != nil {
		return nil, err
	}
	eQR := probeU.EstimateSnapshotEnergy(3.0, mcu.SnapRegs) +
		probeU.EstimateRestoreEnergy(3.0, mcu.SnapRegs)
	analytic := transient.CrossoverFrequency(pFRAM, pSRAM, eHib, eQR)

	out := &Output{
		ID:          "eq5",
		Description: "the eq. (5) crossover between split-SRAM hibernus and unified-FRAM QuickRecall",
		Tables:      []Table{tbl},
	}
	out.Note("analytic eq. (5) crossover: %.1f Hz; measured crossover band: ≥%.0f Hz", analytic, measured)
	out.Note("shape: hibernus wins at low outage rates (FRAM quiescent power dominates); quickrecall wins at high rates (snapshot energy dominates)")
	return out, nil
}

// probeDevice builds a throwaway device for parameter queries.
func probeDevice(unified bool) (*mcu.Device, error) {
	layout := programs.DefaultLayout()
	params := mcu.DefaultParams()
	if unified {
		layout = programs.UnifiedNVLayout()
		params = mcu.UnifiedNVParams()
	}
	w := programs.Fib(5, layout)
	prog, err := asmProgram(w)
	if err != nil {
		return nil, err
	}
	return mcu.New(params, prog), nil
}

// runRuntimes compares all five protection strategies on the standard
// intermittent testbed.
func runRuntimes() (*Output, error) {
	sp, err := examples.Scenario("runtimes-square-sieve")
	if err != nil {
		return nil, err
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{})
	if err != nil {
		return nil, err
	}
	tbl := Table{
		Title: "sieve-3000 on 3.3 V square wave (4 ms on / 150 ms off), 10 µF rail",
		Columns: []string{"runtime", "completions", "wrong", "saves", "aborted",
			"restores", "cold starts", "energy/op (µJ)"},
	}
	out := &Output{
		ID:          "runtimes",
		Description: "comparative behaviour of the surveyed transient runtimes",
	}
	if rep.Cases[0].Lab.Completions != 0 {
		return nil, fmt.Errorf("runtimes: baseline unexpectedly completed")
	}
	names := sp.Sweep[0].Names
	for i, c := range rep.Cases {
		res, label := c.Lab, names[i]
		if label == "none" {
			label = "none (restart)"
		}
		if res.WrongResults != 0 {
			return nil, fmt.Errorf("runtimes: %s produced %d wrong results", label, res.WrongResults)
		}
		eop := "∞"
		if res.Completions > 0 {
			eop = fmt.Sprintf("%.0f", res.EnergyPerCompletion()*1e6)
		}
		tbl.Rows = append(tbl.Rows, []string{
			label,
			fmt.Sprintf("%d", res.Completions),
			fmt.Sprintf("%d", res.WrongResults),
			fmt.Sprintf("%d", res.Stats.SavesStarted),
			fmt.Sprintf("%d", res.Stats.SavesAborted),
			fmt.Sprintf("%d", res.Stats.Restores),
			fmt.Sprintf("%d", res.Stats.ColdStarts),
			eop,
		})
	}
	out.Tables = append(out.Tables, tbl)
	out.Note("shape: the bare device never completes; hibernus takes ≈1 snapshot per outage; mementos takes ≥1.5× more snapshots; hibernus++ completes without design-time calibration; all protected runtimes produce only correct results")
	return out, nil
}
