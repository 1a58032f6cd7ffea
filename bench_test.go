// Package repro's root benchmarks regenerate every figure and equation of
// the paper, one testing.B target each, plus the ablation benches DESIGN.md
// calls out. Each bench reports its shape metrics via b.ReportMetric so
// `go test -bench=. -benchmem` doubles as the experiment log: the custom
// columns (completions/op, crossover-Hz, power-ratio, ...) are the numbers
// EXPERIMENTS.md records against the paper.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/bench/benchtest"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/eneutral"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/mpsoc"
	"repro/internal/powerneutral"
	"repro/internal/programs"
	"repro/internal/source"
	"repro/internal/sweep"
	"repro/internal/taskburst"
	"repro/internal/transient"
	"repro/internal/units"
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
	out := runExperiment(b, "fig7")
	_ = out
}

// BenchmarkFig8HibernusPN regenerates the hibernus-PN comparison (Fig. 8):
// DFS modulation sustains operation through the gust.
func BenchmarkFig8HibernusPN(b *testing.B) {
	out := runExperiment(b, "fig8")
	_ = out
}

// BenchmarkEq1EnergyNeutralWSN runs the adaptive-vs-fixed WSN comparison
// (eqs. 1–2).
func BenchmarkEq1EnergyNeutralWSN(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		n := eneutral.NewNode(20, 0.6, source.DefaultPhotovoltaic())
		n.PActive = 3e-3
		n.PSleep = 3e-6
		n.Controller = eneutral.NewKansal()
		res := n.Simulate(4*units.Day, 10, units.Day)
		if res.Violations != 0 {
			b.Fatal("adaptive node violated eq. (2)")
		}
		worst = res.WorstWindow()
	}
	b.ReportMetric(worst*100, "worst-imbalance-%")
}

// BenchmarkEq3PowerNeutralTracking measures how tightly the governed MCU
// satisfies eq. (3) at the minimal-storage end of the sweep.
func BenchmarkEq3PowerNeutralTracking(b *testing.B) {
	var relErr float64
	for i := 0; i < b.N; i++ {
		gov := powerneutral.NewGovernor(3.0)
		gov.Hysteresis = 0.25
		tr := powerneutral.NewTracker()
		gen := &source.SignalGenerator{Amplitude: 4.5, Frequency: 20, Rs: 100}
		s := lab.Setup{
			Workload: programs.FFT(64, programs.DefaultLayout()),
			Params:   mcu.DefaultParams(),
			VSource:  source.HalfWave(gen, 0.2),
			C:        47e-6,
			V0:       3.0,
			Duration: 2.0,
			Dt:       5e-6,
		}
		s.OnTick = func(t float64, d *mcu.Device, rail *circuit.Rail) {
			gov.Act(t, d, rail.V())
			tr.Observe(rail, rail.V(), s.Dt)
		}
		res := lab.MustRun(s)
		if res.Stats.BrownOuts != 0 {
			b.Fatal("governed run browned out")
		}
		relErr = tr.Stats().RelativeError()
	}
	b.ReportMetric(relErr, "eq3-rel-err")
}

// BenchmarkEq4ThresholdBoundary sweeps the eq. (4) margin and reports the
// aborted-save count at the under-margined end.
func BenchmarkEq4ThresholdBoundary(b *testing.B) {
	out := runExperiment(b, "eq4")
	_ = out
}

// BenchmarkEq5Crossover runs the hibernus/QuickRecall sweep and reports
// the measured crossover frequency (eq. 5).
func BenchmarkEq5Crossover(b *testing.B) {
	var crossover float64
	for i := 0; i < b.N; i++ {
		crossover = measureCrossover(b)
	}
	b.ReportMetric(crossover, "crossover-Hz")
}

// measureCrossover finds the first outage frequency where QuickRecall's
// energy per completion beats hibernus'. The 5×2 frequency × memory-system
// grid fans out over the sweep engine; results come back in row-major
// order, so runs[2i]/runs[2i+1] are the hibernus/QuickRecall pair at
// frequency i.
func measureCrossover(b *testing.B) float64 {
	b.Helper()
	freqs := []float64{2, 5, 10, 20, 40}
	grid := sweep.NewGrid().
		Floats("freq", freqs...).
		Bools("unified", false, true)
	runs, err := sweep.MapGrid(nil, grid, func(c sweep.Case) (lab.Result, error) {
		unified := c.Bool("unified")
		period := 1.0 / c.Float("freq")
		layout := programs.DefaultLayout()
		params := mcu.DefaultParams()
		if unified {
			layout = programs.UnifiedNVLayout()
			params = mcu.UnifiedNVParams()
		}
		return lab.Run(lab.Setup{
			Workload: programs.FFT(64, layout),
			Params:   params,
			MakeRuntime: func(d *mcu.Device) mcu.Runtime {
				if unified {
					return transient.NewQuickRecall(d, 10e-6, 1.1, 0.35)
				}
				return transient.NewHibernus(d, 10e-6, 1.1, 0.35)
			},
			VSource: &source.SquareWaveVoltage{
				High: 3.3, OnTime: period / 2, OffTime: period / 2, Rs: 100,
			},
			C:        10e-6,
			Duration: 4.0,
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	for i, f := range freqs {
		h, q := runs[2*i], runs[2*i+1]
		if q.EnergyPerCompletion() < h.EnergyPerCompletion() {
			return f
		}
	}
	return math.Inf(1)
}

// BenchmarkRuntimeComparison runs all five protection strategies on the
// standard intermittent supply and reports hibernus' snapshot efficiency.
func BenchmarkRuntimeComparison(b *testing.B) {
	out := runExperiment(b, "runtimes")
	_ = out
}

// BenchmarkPeripheralGap quantifies the paper's discussion-section gap:
// checkpointing that ignores peripheral state resumes on a misconfigured
// sensor and a deaf radio.
func BenchmarkPeripheralGap(b *testing.B) {
	out := runExperiment(b, "periph")
	_ = out
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §4)
// ---------------------------------------------------------------------------

// BenchmarkAblationHibernusMargin compares eq. (4) guard margins: the
// tighter the margin, the more active time per dip — until saves start
// aborting.
func BenchmarkAblationHibernusMargin(b *testing.B) {
	for _, m := range []float64{1.0, 1.1, 1.25} {
		b.Run(marginName(m), func(b *testing.B) {
			var done, aborted int
			for i := 0; i < b.N; i++ {
				res := lab.MustRun(benchtest.Intermittent(func(d *mcu.Device) mcu.Runtime {
					return transient.NewHibernus(d, 10e-6, m, 0.35)
				}, 10e-6))
				done, aborted = res.Completions, res.Stats.SavesAborted
			}
			b.ReportMetric(float64(done), "completions")
			b.ReportMetric(float64(aborted), "aborted")
		})
	}
}

func marginName(m float64) string {
	switch m {
	case 1.0:
		return "margin=1.00"
	case 1.1:
		return "margin=1.10"
	default:
		return "margin=1.25"
	}
}

// BenchmarkAblationMementosThreshold compares Mementos voltage-check
// thresholds: higher thresholds snapshot earlier and more often.
func BenchmarkAblationMementosThreshold(b *testing.B) {
	for _, tag := range []struct {
		name string
		v    float64
	}{{"vcheck=2.0", 2.0}, {"vcheck=2.2", 2.2}, {"vcheck=2.8", 2.8}} {
		b.Run(tag.name, func(b *testing.B) {
			var saves, done int
			for i := 0; i < b.N; i++ {
				res := lab.MustRun(benchtest.Intermittent(func(d *mcu.Device) mcu.Runtime {
					return transient.NewMementos(d, tag.v)
				}, 10e-6))
				saves, done = res.Stats.SavesStarted, res.Completions
			}
			b.ReportMetric(float64(saves), "snapshots")
			b.ReportMetric(float64(done), "completions")
		})
	}
}

// BenchmarkAblationGovernorPolicy compares the hill-climb and proportional
// DFS policies on the same supply.
func BenchmarkAblationGovernorPolicy(b *testing.B) {
	for _, tag := range []struct {
		name   string
		policy powerneutral.Policy
	}{{"hillclimb", powerneutral.HillClimb}, {"proportional", powerneutral.Proportional}} {
		b.Run(tag.name, func(b *testing.B) {
			var relErr float64
			var done int
			for i := 0; i < b.N; i++ {
				gov := powerneutral.NewGovernor(3.0)
				gov.Policy = tag.policy
				gov.Hysteresis = 0.25
				tr := powerneutral.NewTracker()
				gen := &source.SignalGenerator{Amplitude: 4.5, Frequency: 20, Rs: 100}
				s := lab.Setup{
					Workload: programs.FFT(64, programs.DefaultLayout()),
					Params:   mcu.DefaultParams(),
					VSource:  source.HalfWave(gen, 0.2),
					C:        470e-6,
					V0:       3.0,
					Duration: 2.0,
					Dt:       5e-6,
				}
				s.OnTick = func(t float64, d *mcu.Device, rail *circuit.Rail) {
					gov.Act(t, d, rail.V())
					tr.Observe(rail, rail.V(), s.Dt)
				}
				res := lab.MustRun(s)
				relErr = tr.Stats().RelativeError()
				done = res.Completions
			}
			b.ReportMetric(relErr, "eq3-rel-err")
			b.ReportMetric(float64(done), "completions")
		})
	}
}

// BenchmarkAblationStorageSweep walks the taxonomy's storage axis with the
// same hibernus system: more storage, fewer outages survived per joule but
// longer uninterrupted stretches.
func BenchmarkAblationStorageSweep(b *testing.B) {
	for _, tag := range []struct {
		name string
		c    float64
	}{{"C=4.7µF", 4.7e-6}, {"C=10µF", 10e-6}, {"C=47µF", 47e-6}, {"C=470µF", 470e-6}} {
		b.Run(tag.name, func(b *testing.B) {
			var done, brownouts int
			for i := 0; i < b.N; i++ {
				res := lab.MustRun(benchtest.Intermittent(func(d *mcu.Device) mcu.Runtime {
					return transient.NewHibernus(d, tag.c, 1.1, 0.35)
				}, tag.c))
				done, brownouts = res.Completions, res.Stats.BrownOuts
			}
			b.ReportMetric(float64(done), "completions")
			b.ReportMetric(float64(brownouts), "brownouts")
		})
	}
}

// BenchmarkAblationFRAMWaitStates isolates the frequency-dependent NVM
// penalty: the same unified-FRAM workload at 8 MHz (zero wait) vs 24 MHz
// (wait states) — throughput does not scale with the clock.
func BenchmarkAblationFRAMWaitStates(b *testing.B) {
	run := func(freqIdx int) float64 {
		params := mcu.UnifiedNVParams()
		params.FreqIndex = freqIdx
		res := lab.MustRun(lab.Setup{
			Workload: programs.FFT(64, programs.UnifiedNVLayout()),
			Params:   params,
			VSource:  &source.ConstantVoltage{V: 3.3, Rs: 50},
			C:        10e-6,
			Duration: 0.2,
		})
		return float64(res.Completions) / 0.2
	}
	for _, tag := range []struct {
		name string
		idx  int
	}{{"8MHz-nowait", 3}, {"24MHz-waits", 5}} {
		b.Run(tag.name, func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				tput = run(tag.idx)
			}
			b.ReportMetric(tput, "ffts/s")
		})
	}
}

// BenchmarkFastForward measures the lab's analytic idle-skip against full
// integration on the standard intermittent testbed (150 ms dark windows):
// the sub-benchmarks' ns/op ratio is the single-core speedup, and the
// "completions" metric demonstrates the skipped run computes the same run.
func BenchmarkFastForward(b *testing.B) {
	for _, tag := range []struct {
		name string
		ff   bool
	}{{"integrated", false}, {"fast-forward", true}} {
		b.Run(tag.name, func(b *testing.B) {
			var done int
			for i := 0; i < b.N; i++ {
				s := benchtest.Intermittent(func(d *mcu.Device) mcu.Runtime {
					return transient.NewHibernus(d, 10e-6, 1.1, 0.35)
				}, 10e-6)
				s.FastForward = tag.ff
				done = lab.MustRun(s).Completions
			}
			b.ReportMetric(float64(done), "completions")
		})
	}
}

// BenchmarkSweepStorageAxis runs the taxonomy storage-axis sweep through
// the parallel engine — on a multi-core host its ns/op drops roughly with
// the worker count relative to BenchmarkAblationStorageSweep's serial sum.
func BenchmarkSweepStorageAxis(b *testing.B) {
	caps := []float64{4.7e-6, 10e-6, 47e-6, 470e-6}
	for i := 0; i < b.N; i++ {
		res, err := sweep.Map(nil, len(caps), func(c sweep.Case) (lab.Result, error) {
			cap := caps[c.Index]
			return lab.Run(benchtest.Intermittent(func(d *mcu.Device) mcu.Runtime {
				return transient.NewHibernus(d, cap, 1.1, 0.35)
			}, cap))
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(caps) {
			b.Fatal("missing results")
		}
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the hot paths
// ---------------------------------------------------------------------------

// BenchmarkCoreInterpreter measures raw guest execution speed on the path
// the device runs: RunBudget's superblock engine, its block cache kept
// warm across iterations as one device's core keeps it across runs.
func BenchmarkCoreInterpreter(b *testing.B) {
	w := programs.FFT(64, programs.DefaultLayout())
	prog := benchtest.MustAsm(b, w)
	ram := benchtest.NewFlatRAM(prog)
	c := benchtest.NewCore(ram, prog.Entry)
	done := false
	c.Sys = benchtest.SysStop(&done)
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
	prog := benchtest.MustAsm(b, programs.FFT(64, programs.DefaultLayout()))
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
	w := programs.FFT(64, programs.DefaultLayout())
	prog := benchtest.MustAsm(b, w)
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
		n, err := taskburst.NewNode(500e-6, taskburst.MonjoloTask(),
			&source.ConstantPower{P: 5e-3}, 1.8, 5.0, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		n.Simulate(10, 1e-4)
		if len(n.Events) == 0 {
			b.Fatal("no events")
		}
	}
}
