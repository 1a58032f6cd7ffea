// Package repro's root benchmarks regenerate every figure and equation of
// the paper, one testing.B target each, plus ablation benches over the
// design choices the paper discusses (guard margins, checkpoint
// thresholds, DFS policy, storage size, FRAM wait states, fast-forward).
// Each bench reports its shape metrics via b.ReportMetric, so
// `go test -run '^$' -bench . -benchtime 1x .` doubles as the experiment
// log: the custom columns (completions, eq3-rel-err, power-ratio, ...)
// are the numbers checked against the paper. Every lab run here starts
// from a curated spec under examples/scenarios, the same definition
// `ehsim -scenario` runs.
package repro_test

import (
	"math"
	"testing"

	"repro/examples"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/mpsoc"
	"repro/internal/programs"
	"repro/internal/scenario"
	"repro/internal/source"
	"repro/internal/taskburst"
)

// runExperiment drives a registered experiment once per bench iteration.
func runExperiment(b *testing.B, id string) *experiments.Output {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var out *experiments.Output
	var err error
	for i := 0; i < b.N; i++ {
		out, err = e.Run()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return out
}

// BenchmarkFig1aWindGust regenerates the micro wind turbine gust waveform
// (Fig. 1(a)): ±6 V AC at several Hz over one gust.
func BenchmarkFig1aWindGust(b *testing.B) {
	out := runExperiment(b, "fig1a")
	s := out.Recorder.Series("vout").Summarize()
	b.ReportMetric(s.Max, "peakV")
	b.ReportMetric(-s.Min, "troughV")
}

// BenchmarkFig1bPhotovoltaic regenerates the two-day indoor PV profile
// (Fig. 1(b)): harvested current between ≈280 and ≈430 µA.
func BenchmarkFig1bPhotovoltaic(b *testing.B) {
	out := runExperiment(b, "fig1b")
	s := out.Recorder.Series("iharvest").Summarize()
	b.ReportMetric(s.Min, "floor-µA")
	b.ReportMetric(s.Max, "peak-µA")
}

// BenchmarkFig2Taxonomy classifies the paper's reference systems (Fig. 2).
func BenchmarkFig2Taxonomy(b *testing.B) {
	out := runExperiment(b, "fig2")
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "systems")
	ed := 0
	for _, s := range core.Registry() {
		if s.EnergyDriven {
			ed++
		}
	}
	b.ReportMetric(float64(ed), "energy-driven")
}

// BenchmarkFig5OperatingPoints regenerates the MPSoC power/performance
// scatter (Fig. 5): order-of-magnitude power modulation, ≈0.2 FPS peak.
func BenchmarkFig5OperatingPoints(b *testing.B) {
	board := mpsoc.XU4()
	var ratio, peak float64
	for i := 0; i < b.N; i++ {
		pts := board.OperatingPoints()
		min, max := mpsoc.PowerRange(pts)
		ratio = max / min
		peak = 0
		for _, p := range pts {
			peak = math.Max(peak, p.FPS)
		}
	}
	b.ReportMetric(ratio, "power-ratio")
	b.ReportMetric(peak, "peak-FPS")
}

// BenchmarkFig7HibernusFFT regenerates the hibernus waveform run (Fig. 7):
// one snapshot per dip, FFT completing a few supply cycles in.
func BenchmarkFig7HibernusFFT(b *testing.B) {
	runExperiment(b, "fig7")
}

// BenchmarkFig8HibernusPN regenerates the hibernus-PN comparison (Fig. 8):
// DFS modulation sustains operation through the gust.
func BenchmarkFig8HibernusPN(b *testing.B) {
	runExperiment(b, "fig8")
}

// BenchmarkEq1EnergyNeutralWSN runs the eq1 experiment's adaptive node
// (eqs. 1–2): the curated eq1-eneutral-four-days spec.
func BenchmarkEq1EnergyNeutralWSN(b *testing.B) {
	sp, err := examples.Scenario("eq1-eneutral-four-days")
	if err != nil {
		b.Fatal(err)
	}
	var m map[string]float64
	for i := 0; i < b.N; i++ {
		if m = runCase(b, sp).Metrics; m["violations"] != 0 {
			b.Fatal("adaptive node violated eq. (2)")
		}
	}
	b.ReportMetric(m["worst_window"]*100, "worst-imbalance-%")
}

// BenchmarkEq3PowerNeutralTracking measures how tightly the governed MCU
// satisfies eq. (3) at the minimal-storage end of the sweep.
func BenchmarkEq3PowerNeutralTracking(b *testing.B) {
	sp := governedFFT(b, 47e-6)
	var r scenario.ModelCase
	for i := 0; i < b.N; i++ {
		if r = runCase(b, sp); r.Result.Stats.BrownOuts != 0 {
			b.Fatal("governed run browned out")
		}
	}
	b.ReportMetric(r.Metrics["track_err"], "eq3-rel-err")
}

// BenchmarkEq4ThresholdBoundary sweeps the eq. (4) margin and reports the
// aborted-save count at the under-margined end.
func BenchmarkEq4ThresholdBoundary(b *testing.B) {
	runExperiment(b, "eq4")
}

// BenchmarkEq5Crossover runs the hibernus/QuickRecall outage-frequency
// sweep; the eq5 experiment's table and note carry the measured and
// analytic crossover (eq. 5).
func BenchmarkEq5Crossover(b *testing.B) {
	runExperiment(b, "eq5")
}

// BenchmarkRuntimeComparison runs all five protection strategies on the
// standard intermittent supply and reports hibernus' snapshot efficiency.
func BenchmarkRuntimeComparison(b *testing.B) {
	runExperiment(b, "runtimes")
}

// BenchmarkPeripheralGap quantifies the paper's discussion-section gap:
// checkpointing that ignores peripheral state resumes on a misconfigured
// sensor and a deaf radio.
func BenchmarkPeripheralGap(b *testing.B) {
	runExperiment(b, "periph")
}

// ---------------------------------------------------------------------------
// Ablation benches
// ---------------------------------------------------------------------------

// curated loads the named curated spec, sets one parameter with Apply,
// and replaces its sweep axes with the given ones (none: a single run).
func curated(b *testing.B, name, param string, value any, sweep []scenario.Axis) *scenario.Spec {
	b.Helper()
	sp, err := examples.Scenario(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := sp.Apply(param, value); err != nil {
		b.Fatal(err)
	}
	sp.Sweep = sweep
	return sp
}

// runtimesTestbed is the runtimes experiment's curated testbed
// (runtimes-square-sieve: sieve-3000 on the registry's default square
// supply, 4 ms on and 150 ms dark, behind a leaky 10 µF rail for 3 s)
// under one runtime at its registry defaults.
func runtimesTestbed(b *testing.B, runtime string, sweep ...scenario.Axis) *scenario.Spec {
	return curated(b, "runtimes-square-sieve", "runtime", runtime, sweep)
}

// governedFFT is the eq. (3) experiment's curated testbed
// (powerneutral-storage-sweep: fft64 on the registry's default 20 Hz
// half-wave rectified sine, the rail precharged to the governor's 3 V
// setpoint, under the hill-climb DFS governor) at one capacitance.
func governedFFT(b *testing.B, c float64, sweep ...scenario.Axis) *scenario.Spec {
	return curated(b, "powerneutral-storage-sweep", "c", c, sweep)
}

// storageSweep walks the taxonomy's storage axis under hibernus, whose
// eq. (4) threshold is calibrated to each case's capacitance.
func storageSweep(b *testing.B) *scenario.Spec {
	return runtimesTestbed(b, "hibernus",
		scenario.Axis{Param: "c", Values: []scenario.Value{4.7e-6, 10e-6, 47e-6, 470e-6}})
}

// runCase runs one sweep-free spec through scenario.RunModel. A governed
// lab spec's case carries its eq. (3) tracking in the track_err and
// vcc_range metrics.
func runCase(b *testing.B, sp *scenario.Spec) scenario.ModelCase {
	b.Helper()
	rep, err := scenario.RunModel(sp, scenario.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return rep.Cases[0]
}

// runLab runs one sweep-free lab spec through scenario.RunModel.
func runLab(b *testing.B, sp *scenario.Spec) lab.Result {
	b.Helper()
	return runCase(b, sp).Result
}

// benchCases runs each case of the spec's sweep grid as a sub-benchmark
// named after the case, and hands the last run's outcome to report.
func benchCases[R any](b *testing.B, sp *scenario.Spec,
	run func(*testing.B, *scenario.Spec) R, report func(*testing.B, R)) {
	for _, c := range sp.Grid().Cases() {
		cs, err := sp.At(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			var r R
			for i := 0; i < b.N; i++ {
				r = run(b, cs)
			}
			report(b, r)
		})
	}
}

// BenchmarkAblationHibernusMargin compares eq. (4) guard margins: the
// tighter the margin, the more active time per dip — until saves start
// aborting.
func BenchmarkAblationHibernusMargin(b *testing.B) {
	sp := runtimesTestbed(b, "hibernus",
		scenario.Axis{Param: "runtime.margin", Values: []scenario.Value{1.0, 1.1, 1.25}})
	benchCases(b, sp, runLab, func(b *testing.B, res lab.Result) {
		b.ReportMetric(float64(res.Completions), "completions")
		b.ReportMetric(float64(res.Stats.SavesAborted), "aborted")
	})
}

// BenchmarkAblationMementosThreshold compares Mementos voltage-check
// thresholds: higher thresholds snapshot earlier and more often.
func BenchmarkAblationMementosThreshold(b *testing.B) {
	sp := runtimesTestbed(b, "mementos",
		scenario.Axis{Param: "runtime.vcheck", Values: []scenario.Value{2.0, 2.2, 2.8}})
	benchCases(b, sp, runLab, func(b *testing.B, res lab.Result) {
		b.ReportMetric(float64(res.Stats.SavesStarted), "snapshots")
		b.ReportMetric(float64(res.Completions), "completions")
	})
}

// BenchmarkAblationGovernorPolicy compares the hill-climb and proportional
// DFS policies on the same supply.
func BenchmarkAblationGovernorPolicy(b *testing.B) {
	sp := governedFFT(b, 470e-6,
		scenario.Axis{Param: "governor", Names: []string{"hillclimb", "proportional"}})
	benchCases(b, sp, runCase, func(b *testing.B, r scenario.ModelCase) {
		b.ReportMetric(r.Metrics["track_err"], "eq3-rel-err")
		b.ReportMetric(float64(r.Result.Completions), "completions")
	})
}

// BenchmarkAblationStorageSweep walks the taxonomy's storage axis with the
// same hibernus system: more storage, fewer outages survived per joule but
// longer uninterrupted stretches.
func BenchmarkAblationStorageSweep(b *testing.B) {
	benchCases(b, storageSweep(b), runLab, func(b *testing.B, res lab.Result) {
		b.ReportMetric(float64(res.Completions), "completions")
		b.ReportMetric(float64(res.Stats.BrownOuts), "brownouts")
	})
}

// BenchmarkAblationFRAMWaitStates isolates the frequency-dependent NVM
// penalty: the same unified-FRAM workload at 8 MHz (freqindex 3, zero
// wait) vs 24 MHz (freqindex 5, wait states) — throughput does not scale
// with the clock.
func BenchmarkAblationFRAMWaitStates(b *testing.B) {
	// The curated FRAM-vs-SRAM testbed (fft64, 10 µF) with no runtime,
	// forced onto the unified-FRAM device, on a stiff DC supply.
	sp := curated(b, "transient-fram-vs-sram", "runtime", "none",
		[]scenario.Axis{{Param: "freqindex", Values: []scenario.Value{3, 5}}})
	sp.Device.Profile = "unified-nv"
	sp.Source = scenario.SourceSpec{Name: "dc", Params: map[string]scenario.Value{"rs": 50}}
	sp.Duration = 0.2
	benchCases(b, sp, runLab, func(b *testing.B, res lab.Result) {
		b.ReportMetric(float64(res.Completions)/float64(sp.Duration), "ffts/s")
	})
}

// BenchmarkFastForward measures the lab's analytic idle-skip against full
// integration on the runtimes testbed (150 ms dark windows): the
// sub-benchmarks' ns/op ratio is the single-core speedup, and the
// "completions" metric demonstrates the skipped run computes the same run.
func BenchmarkFastForward(b *testing.B) {
	for _, tag := range []struct {
		name string
		ff   bool
	}{{"integrated", false}, {"fast-forward", true}} {
		b.Run(tag.name, func(b *testing.B) {
			sp := runtimesTestbed(b, "hibernus")
			sp.FastForward = tag.ff
			var done int
			for i := 0; i < b.N; i++ {
				done = runLab(b, sp).Completions
			}
			b.ReportMetric(float64(done), "completions")
		})
	}
}

// BenchmarkSweepStorageAxis runs BenchmarkAblationStorageSweep's four
// cases as one spec through the parallel sweep engine — on a multi-core
// host its ns/op drops roughly with the worker count relative to the
// ablation's serial sum.
func BenchmarkSweepStorageAxis(b *testing.B) {
	sp := storageSweep(b)
	for i := 0; i < b.N; i++ {
		rep, err := scenario.RunModel(sp, scenario.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Cases) != len(sp.Sweep[0].Values) {
			b.Fatal("missing results")
		}
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the hot paths
// ---------------------------------------------------------------------------

// mustAsm assembles a workload or fails the benchmark.
func mustAsm(b *testing.B, w *programs.Workload) *isa.Program {
	b.Helper()
	p, err := isa.Assemble(w.Source)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkCoreInterpreter measures raw guest execution speed on the path
// the device runs: RunBudget's superblock engine, its block cache kept
// warm across iterations as one device's core keeps it across runs.
func BenchmarkCoreInterpreter(b *testing.B) {
	prog := mustAsm(b, programs.FFT(64, programs.DefaultLayout()))
	ram := &isa.FlatRAM{}
	prog.LoadInto(ram)
	c := &isa.Core{Bus: ram}
	done := false
	c.Sys = func(code uint16, c *isa.Core) {
		if code == programs.SysDone {
			done = true
			c.Halted = true
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset(prog.Entry)
		c.R[isa.SP] = 0xff00
		done = false
		for !done {
			if _, _, err := c.RunBudget(100_000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDeviceExecute measures guest execution the way the lab drives
// it: fft64 on an mcu.Device at 8 MHz, ticked every 5 µs, so each
// RunBudget call gets a 40-cycle budget, and with code in FRAM and data
// in SRAM the loads and stores use a different memory window than the
// fetches. One op is one fft64 iteration; ns/cycle is wall time per
// guest cycle.
func BenchmarkDeviceExecute(b *testing.B) {
	prog := mustAsm(b, programs.FFT(64, programs.DefaultLayout()))
	d := mcu.New(mcu.DefaultParams(), prog)
	done := false
	d.SysHandler = func(code uint16, _ *isa.Core) {
		if code == programs.SysDone {
			done = true
		}
	}
	const dt = 5e-6
	for d.Mode() != mcu.ModeActive {
		d.Tick(3.3, dt)
	}
	start := d.Stats.CyclesRun
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		for !done && d.Err == nil {
			d.Tick(3.3, dt)
		}
		if d.Err != nil {
			b.Fatal(d.Err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(d.Stats.CyclesRun-start), "ns/cycle")
}

// BenchmarkRailStep measures the electrical solver alone.
func BenchmarkRailStep(b *testing.B) {
	cap := circuit.NewCapacitor(10e-6, 3.3)
	rail := circuit.NewRail(cap)
	rail.VSource = &source.SquareWaveVoltage{High: 3.3, OnTime: 0.004, OffTime: 0.15, Rs: 100}
	rail.AddLoad(&circuit.ConstantCurrentLoad{I: 1e-3, VMin: 1.8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rail.Step(5e-6)
	}
}

// BenchmarkSnapshotSaveRestore measures a full snapshot round trip.
func BenchmarkSnapshotSaveRestore(b *testing.B) {
	prog := mustAsm(b, programs.FFT(64, programs.DefaultLayout()))
	d := mcu.New(mcu.DefaultParams(), prog)
	// Power it on.
	for d.Mode() != mcu.ModeActive {
		d.Tick(3.3, 10e-6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.BeginSave(mcu.SnapFull, nil)
		for d.Mode() != mcu.ModeActive {
			d.Tick(3.3, 10e-6)
		}
		d.BeginRestore(nil)
		for d.Mode() != mcu.ModeActive {
			d.Tick(3.3, 10e-6)
		}
	}
}

// BenchmarkTaskBurst measures the charge-fire loop.
func BenchmarkTaskBurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, err := taskburst.NewNode(500e-6, taskburst.Task{Name: "ping", EnergyJ: 1e-3},
			&source.ConstantPower{P: 5e-3}, 1.8, 5.0, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		taskburst.NewSim(n, 10, 1e-4).Step(0)
		if len(n.Events) == 0 {
			b.Fatal("no events")
		}
	}
}
