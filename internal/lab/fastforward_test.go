package lab

import (
	"math"
	"testing"

	"repro/internal/mcu"
	"repro/internal/programs"
	"repro/internal/source"
	"repro/internal/trace"
	"repro/internal/transient"
)

// intermittentSetup is the standard square-wave outage testbed: 4 ms of
// supply followed by 150 ms of darkness, during which the device browns
// out and the rail decays — exactly the stretch fast-forward skips.
func intermittentSetup(ff bool) Setup {
	return Setup{
		Workload: programs.Sieve(3000, programs.DefaultLayout()),
		Params:   mcu.DefaultParams(),
		MakeRuntime: func(d *mcu.Device) mcu.Runtime {
			return transient.NewHibernus(d, 10e-6, 1.1, 0.35)
		},
		VSource:     &source.SquareWaveVoltage{High: 3.3, OnTime: 0.004, OffTime: 0.150, Rs: 100},
		C:           10e-6,
		LeakR:       50e3,
		Duration:    3.0,
		FastForward: ff,
	}
}

// TestFastForwardMatchesFullIntegration is the fast-forward regression
// gate: a skipped run must reproduce the fully-integrated run's discrete
// outcomes exactly and its continuous outcomes within tight tolerance.
func TestFastForwardMatchesFullIntegration(t *testing.T) {
	full, err := Run(intermittentSetup(false))
	if err != nil {
		t.Fatal(err)
	}
	ff, err := Run(intermittentSetup(true))
	if err != nil {
		t.Fatal(err)
	}

	// Discrete event counts must agree exactly: the skip may only cover
	// intervals where nothing can happen.
	if ff.Completions != full.Completions || ff.WrongResults != full.WrongResults {
		t.Errorf("completions %d/%d wrong %d/%d (ff/full)",
			ff.Completions, full.Completions, ff.WrongResults, full.WrongResults)
	}
	if ff.Stats.BrownOuts != full.Stats.BrownOuts ||
		ff.Stats.SavesDone != full.Stats.SavesDone ||
		ff.Stats.Restores != full.Stats.Restores ||
		ff.Stats.PowerOns != full.Stats.PowerOns {
		t.Errorf("event counts diverged:\n  ff   %+v\n  full %+v", ff.Stats, full.Stats)
	}

	relClose := func(name string, a, b, tol float64) {
		t.Helper()
		denom := math.Max(math.Abs(b), 1e-12)
		if math.Abs(a-b)/denom > tol {
			t.Errorf("%s: ff %.9g vs full %.9g (rel err %.3g > %g)",
				name, a, b, math.Abs(a-b)/denom, tol)
		}
	}
	relClose("ConsumedJ", ff.ConsumedJ, full.ConsumedJ, 1e-4)
	relClose("HarvestedJ", ff.HarvestedJ, full.HarvestedJ, 1e-4)
	// Active (and save/restore) intervals are never skipped, but the
	// closed-form decay differs from iterated Euler in the last float
	// digits, so a threshold crossing (V_On, V_R) can land one 5 µs step
	// early or late per outage. The sleep→off split inside a dark window
	// may additionally shift by up to one chunk per outage.
	relClose("ActiveSec", ff.Stats.ActiveSec, full.Stats.ActiveSec, 1e-3)
	relClose("idleSec", ff.Stats.OffSec+ff.Stats.SleepSec,
		full.Stats.OffSec+full.Stats.SleepSec, 1e-3)
	chunkSec := ffChunk * 5e-6
	if d := math.Abs(ff.Stats.OffSec - full.Stats.OffSec); d > float64(full.Stats.BrownOuts+1)*chunkSec {
		t.Errorf("OffSec shifted %.4f s, beyond one chunk per outage", d)
	}
	if math.Abs(ff.FinalV-full.FinalV) > 1e-6 {
		t.Errorf("FinalV: ff %.9f vs full %.9f", ff.FinalV, full.FinalV)
	}
	// Completion timestamps shift by at most one skip chunk (0.5 ms).
	if len(ff.CompletionTimes) == len(full.CompletionTimes) {
		for i := range ff.CompletionTimes {
			if d := math.Abs(ff.CompletionTimes[i] - full.CompletionTimes[i]); d > ffChunk*5e-6 {
				t.Errorf("completion %d shifted by %.3g s", i, d)
			}
		}
	}
}

// TestFastForwardContinuousSupplyActiveHop: a DC supply never blocks the
// diode, so the device executes continuously — the stretch the adaptive
// active-phase stepper covers. Execution must be bit-exact (the device's
// cycle budget advances step by step inside a hop), so completion counts
// AND timestamps match full integration exactly; the rail telemetry is
// closed-form and agrees to floating-point accuracy.
func TestFastForwardContinuousSupplyActiveHop(t *testing.T) {
	mk := func(ff bool) Setup {
		return Setup{
			Workload:    programs.Fib(24, programs.DefaultLayout()),
			Params:      mcu.DefaultParams(),
			VSource:     &source.ConstantVoltage{V: 3.3, Rs: 50},
			C:           10e-6,
			Duration:    0.05,
			FastForward: ff,
		}
	}
	full, err := Run(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	ff, err := Run(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if ff.Completions != full.Completions || ff.WrongResults != full.WrongResults ||
		ff.Stats.CyclesRun != full.Stats.CyclesRun {
		t.Fatalf("execution diverged: ff %d/%d/%d full %d/%d/%d (completions/wrong/cycles)",
			ff.Completions, ff.WrongResults, ff.Stats.CyclesRun,
			full.Completions, full.WrongResults, full.Stats.CyclesRun)
	}
	if full.Completions == 0 {
		t.Fatal("testbed never completed a workload iteration")
	}
	for i := range full.CompletionTimes {
		if ff.CompletionTimes[i] != full.CompletionTimes[i] {
			t.Fatalf("completion %d timestamp diverged: ff %.17g full %.17g",
				i, ff.CompletionTimes[i], full.CompletionTimes[i])
		}
	}
	if ff.Stats.ActiveSec != full.Stats.ActiveSec {
		t.Errorf("ActiveSec diverged: ff %.17g full %.17g", ff.Stats.ActiveSec, full.Stats.ActiveSec)
	}
	relClose := func(name string, a, b, tol float64) {
		t.Helper()
		denom := math.Max(math.Abs(b), 1e-12)
		if math.Abs(a-b)/denom > tol {
			t.Errorf("%s: ff %.12g vs full %.12g (rel err %.3g > %g)",
				name, a, b, math.Abs(a-b)/denom, tol)
		}
	}
	relClose("ConsumedJ", ff.ConsumedJ, full.ConsumedJ, 1e-9)
	relClose("HarvestedJ", ff.HarvestedJ, full.HarvestedJ, 1e-9)
	if math.Abs(ff.FinalV-full.FinalV) > 1e-9 {
		t.Errorf("FinalV: ff %.12f vs full %.12f", ff.FinalV, full.FinalV)
	}
}

// TestFastForwardDeadRail: no source at all — the whole decay collapses
// into analytic skips and the device simply never powers on.
func TestFastForwardDeadRail(t *testing.T) {
	s := Setup{
		Workload:    programs.Fib(10, programs.DefaultLayout()),
		Params:      mcu.DefaultParams(),
		C:           10e-6,
		V0:          1.0, // below V_On: the device stays off throughout
		LeakR:       50e3,
		Duration:    1.0,
		FastForward: true,
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions != 0 || res.Stats.PowerOns != 0 {
		t.Errorf("dead rail ran the device: %+v", res)
	}
	if res.Stats.OffSec < 0.999 {
		t.Errorf("OffSec = %.3f, want the full second accounted", res.Stats.OffSec)
	}
}

// TestFastForwardTraceKeepsCadence pins the interpolated-sample contract:
// with an interval-gated recorder attached, a fast-forwarded run must
// record on the same cadence as full integration — skips emit closed-form
// samples at every instant the stepwise loop would have stored — with
// V_CC matching within fast-forward tolerance.
func TestFastForwardTraceKeepsCadence(t *testing.T) {
	run := func(ff bool) *trace.Recorder {
		s := intermittentSetup(ff)
		s.Duration = 1.0
		s.Recorder = recorderEvery(1e-3)
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
		return s.Recorder
	}
	full := run(false).Series("vcc")
	ffd := run(true).Series("vcc")

	// Full integration stores one sample per interval; the skipped run
	// must not thin that out beyond end-of-run boundary effects (chunk
	// boundaries gate slightly differently than step boundaries).
	if ffd.Len() < full.Len()-2 {
		t.Fatalf("fast-forward trace thinner than stepwise: %d < %d samples", ffd.Len(), full.Len())
	}
	// No recording gap may exceed the cadence by more than a step chunk.
	for i := 1; i < ffd.Len(); i++ {
		if gap := ffd.T(i) - ffd.T(i-1); gap > 2e-3 {
			t.Fatalf("recording gap %.4fs at t=%.4fs exceeds cadence", gap, ffd.T(i))
		}
	}
	// Values: sample the skipped trace at the stepwise timestamps and
	// compare. The comparison is slope-gated: across the steep recharge
	// edges both runs integrate stepwise but record at timestamps offset
	// by up to one cadence interval, so a value diff there measures
	// slope × timing offset, not fast-forward accuracy. The decay
	// stretches — the part the closed form is responsible for — must
	// match tightly.
	for i := 1; i < full.Len()-1; i++ {
		if math.Abs(full.V(i+1)-full.V(i-1)) > 0.05 {
			continue // steep edge: timing offset dominates
		}
		tm, want := full.T(i), full.V(i)
		if got := ffd.Sample(tm); math.Abs(got-want) > 0.02 {
			t.Fatalf("V_CC diverged at t=%.4fs: ff=%.4f full=%.4f", tm, got, want)
		}
	}
}

// TestFastForwardIntervalLessRecorder keeps the documented fallback: an
// interval-less recorder under fast-forward observes chunk boundaries
// only, but the run's physics still match full integration.
func TestFastForwardIntervalLessRecorder(t *testing.T) {
	s := intermittentSetup(true)
	s.Duration = 0.5
	s.Recorder = trace.NewRecorder()
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if s.Recorder.Series("vcc").Len() == 0 {
		t.Fatal("no samples recorded")
	}
	plain, err := Run(intermittentSetupAt(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions != plain.Completions {
		t.Fatalf("recorder perturbed the run: %d vs %d completions", res.Completions, plain.Completions)
	}
}

// intermittentSetupAt is intermittentSetup(true) with a custom duration.
func intermittentSetupAt(dur float64) Setup {
	s := intermittentSetup(true)
	s.Duration = dur
	return s
}

// TestFastForwardSupplyRegistry sweeps every entry in the source registry
// through full integration vs fast-forward with the standard hibernus
// runtime. The contract under test is uniform: discrete outcomes (event
// counts) agree exactly for every supply, and for plateau supplies —
// where the adaptive active-phase stepper engages — execution is
// bit-exact (completion timestamps, cycle counts, active seconds).
// Power-envelope supplies (PSource) refuse fast-forward entirely, so
// those runs must be bit-identical throughout.
func TestFastForwardSupplyRegistry(t *testing.T) {
	// Simulated length per supply, tuned so the device actually powers
	// on and runs (slow chargers and scheduled bursts need more time).
	durations := map[string]float64{
		"dc":             0.05,
		"solar":          0.30,
		"square":         0.50,
		"sine":           0.30,
		"rectified-sine": 0.30,
		"wind":           1.20,
		"rf":             0.60,
		"pv":             0.30,
		"const-power":    0.20,
	}
	for _, name := range source.Names() {
		t.Run(name, func(t *testing.T) {
			dur, ok := durations[name]
			if !ok {
				t.Fatalf("no duration tuned for new source %q — add it to this sweep", name)
			}
			mk := func(ff bool) Setup {
				built, err := source.Build(name, nil)
				if err != nil {
					t.Fatalf("build %q: %v", name, err)
				}
				return Setup{
					Workload: programs.Fib(20, programs.DefaultLayout()),
					Params:   mcu.DefaultParams(),
					MakeRuntime: func(d *mcu.Device) mcu.Runtime {
						return transient.NewHibernus(d, 10e-6, 1.1, 0.35)
					},
					VSource:     built.V,
					PSource:     built.P,
					C:           10e-6,
					Duration:    dur,
					FastForward: ff,
				}
			}
			full, err := Run(mk(false))
			if err != nil {
				t.Fatal(err)
			}
			ff, err := Run(mk(true))
			if err != nil {
				t.Fatal(err)
			}

			// Discrete outcomes: exact for every supply kind.
			if ff.Completions != full.Completions || ff.WrongResults != full.WrongResults {
				t.Errorf("completions %d/%d wrong %d/%d (ff/full)",
					ff.Completions, full.Completions, ff.WrongResults, full.WrongResults)
			}
			if ff.Stats.BrownOuts != full.Stats.BrownOuts ||
				ff.Stats.SavesDone != full.Stats.SavesDone ||
				ff.Stats.Restores != full.Stats.Restores ||
				ff.Stats.PowerOns != full.Stats.PowerOns {
				t.Errorf("event counts diverged:\n  ff   %+v\n  full %+v", ff.Stats, full.Stats)
			}
			if full.Completions == 0 && full.Stats.PowerOns == 0 {
				t.Errorf("testbed inert: device never powered on under %q", name)
			}

			s := mk(false)
			_, plateau := s.VSource.(source.PlateauVoltage)
			exact := s.PSource != nil // fast-forward fully refused: identical paths
			if plateau || exact {
				// Adaptive stepping advances the device step by step inside
				// a hop, so execution must be bit-exact.
				if ff.Stats.CyclesRun != full.Stats.CyclesRun {
					t.Errorf("CyclesRun diverged: ff %d full %d", ff.Stats.CyclesRun, full.Stats.CyclesRun)
				}
				if ff.Stats.ActiveSec != full.Stats.ActiveSec {
					t.Errorf("ActiveSec diverged: ff %.17g full %.17g",
						ff.Stats.ActiveSec, full.Stats.ActiveSec)
				}
				if len(ff.CompletionTimes) == len(full.CompletionTimes) {
					for i := range ff.CompletionTimes {
						if ff.CompletionTimes[i] != full.CompletionTimes[i] {
							t.Errorf("completion %d timestamp diverged: ff %.17g full %.17g",
								i, ff.CompletionTimes[i], full.CompletionTimes[i])
						}
					}
				}
			}

			relClose := func(metric string, a, b, tol float64) {
				t.Helper()
				denom := math.Max(math.Abs(b), 1e-12)
				if math.Abs(a-b)/denom > tol {
					t.Errorf("%s: ff %.9g vs full %.9g (rel err %.3g > %g)",
						metric, a, b, math.Abs(a-b)/denom, tol)
				}
			}
			tol := 1e-4
			if exact {
				tol = 0 // identical code path: any drift is a bug
			}
			if tol == 0 {
				if ff.ConsumedJ != full.ConsumedJ || ff.HarvestedJ != full.HarvestedJ || ff.FinalV != full.FinalV {
					t.Errorf("refused-path run diverged: consumed %.17g/%.17g harvested %.17g/%.17g finalV %.17g/%.17g",
						ff.ConsumedJ, full.ConsumedJ, ff.HarvestedJ, full.HarvestedJ, ff.FinalV, full.FinalV)
				}
			} else {
				relClose("ConsumedJ", ff.ConsumedJ, full.ConsumedJ, tol)
				relClose("HarvestedJ", ff.HarvestedJ, full.HarvestedJ, tol)
				if math.Abs(ff.FinalV-full.FinalV) > 1e-6 {
					t.Errorf("FinalV: ff %.9f vs full %.9f", ff.FinalV, full.FinalV)
				}
			}
		})
	}
}

// TestFastForwardThresholdCrossingInsideChunk forces hibernus thresholds
// to fall deep inside adaptive hops: a large capacitor discharging slowly
// through an outage means the V_H save crossing and the V_Off collapse
// arrive many steps after the hop begins, so the bisection must place
// them — and the save/sleep transition they trigger — on exactly the
// stepwise boundary. An interval-less recorder doubles as an engagement
// probe: under fast-forward it samples chunk boundaries only, so a thin
// trace proves hops actually covered the run.
func TestFastForwardThresholdCrossingInsideChunk(t *testing.T) {
	mk := func(ff bool) Setup {
		return Setup{
			Workload: programs.Fib(20, programs.DefaultLayout()),
			Params:   mcu.DefaultParams(),
			MakeRuntime: func(d *mcu.Device) mcu.Runtime {
				return transient.NewHibernus(d, 47e-6, 1.1, 0.35)
			},
			VSource:     &source.SquareWaveVoltage{High: 3.3, OnTime: 0.02, OffTime: 0.05, Rs: 100},
			C:           47e-6,
			Duration:    1.0,
			FastForward: ff,
			Recorder:    trace.NewRecorder(),
		}
	}
	full, err := Run(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	sf := mk(true)
	ff, err := Run(sf)
	if err != nil {
		t.Fatal(err)
	}

	// The testbed must actually exercise in-chunk crossings: every save
	// is a falling V_H crossing found inside an active-phase hop (the big
	// capacitor rides out each outage asleep, so there are no restores —
	// the wake path is a V_R crossing inside a sleeping hop instead).
	if full.Stats.SavesDone == 0 || full.Stats.PowerOns == 0 {
		t.Fatalf("testbed too tame: saves=%d powerons=%d", full.Stats.SavesDone, full.Stats.PowerOns)
	}
	// …and fast-forward must actually engage.
	if n := sf.Recorder.Series("vcc").Len(); n > full.Steps/4 {
		t.Fatalf("fast-forward barely engaged: %d samples of %d steps", n, full.Steps)
	}

	if ff.Completions != full.Completions || ff.WrongResults != full.WrongResults ||
		ff.Stats.CyclesRun != full.Stats.CyclesRun {
		t.Fatalf("execution diverged: ff %d/%d/%d full %d/%d/%d (completions/wrong/cycles)",
			ff.Completions, ff.WrongResults, ff.Stats.CyclesRun,
			full.Completions, full.WrongResults, full.Stats.CyclesRun)
	}
	if ff.Stats.BrownOuts != full.Stats.BrownOuts ||
		ff.Stats.SavesDone != full.Stats.SavesDone ||
		ff.Stats.Restores != full.Stats.Restores ||
		ff.Stats.PowerOns != full.Stats.PowerOns {
		t.Errorf("event counts diverged:\n  ff   %+v\n  full %+v", ff.Stats, full.Stats)
	}
	if ff.Stats.ActiveSec != full.Stats.ActiveSec {
		t.Errorf("ActiveSec diverged: ff %.17g full %.17g", ff.Stats.ActiveSec, full.Stats.ActiveSec)
	}
	if len(ff.CompletionTimes) != len(full.CompletionTimes) {
		t.Fatalf("completion count diverged: %d vs %d", len(ff.CompletionTimes), len(full.CompletionTimes))
	}
	for i := range ff.CompletionTimes {
		if ff.CompletionTimes[i] != full.CompletionTimes[i] {
			t.Fatalf("completion %d timestamp diverged: ff %.17g full %.17g",
				i, ff.CompletionTimes[i], full.CompletionTimes[i])
		}
	}
}

// TestFastForwardActiveCadence pins the interpolated-sample contract on
// an active-phase hop: with a DC supply the device executes continuously
// under adaptive stepping, and an interval-gated recorder must see the
// same cadence as full integration — same timestamps, closed-form V_CC
// agreeing with iterated Euler to floating-point accuracy.
func TestFastForwardActiveCadence(t *testing.T) {
	run := func(ff bool) *trace.Recorder {
		s := Setup{
			Workload:    programs.Fib(24, programs.DefaultLayout()),
			Params:      mcu.DefaultParams(),
			VSource:     &source.ConstantVoltage{V: 3.3, Rs: 50},
			C:           10e-6,
			Duration:    0.05,
			FastForward: ff,
			Recorder:    recorderEvery(1e-3),
		}
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
		return s.Recorder
	}
	full := run(false).Series("vcc")
	ffd := run(true).Series("vcc")

	if d := full.Len() - ffd.Len(); d < -2 || d > 2 {
		t.Fatalf("cadence diverged: %d vs %d samples", ffd.Len(), full.Len())
	}
	n := full.Len()
	if ffd.Len() < n {
		n = ffd.Len()
	}
	for i := 0; i < n; i++ {
		if tf, td := full.T(i), ffd.T(i); math.Abs(tf-td) > 1e-9 {
			t.Fatalf("sample %d timestamp diverged: ff %.12g full %.12g", i, td, tf)
		}
		if vf, vd := full.V(i), ffd.V(i); math.Abs(vf-vd) > 1e-9 {
			t.Fatalf("sample %d V_CC diverged: ff %.12g full %.12g at t=%.4fs", i, vd, vf, full.T(i))
		}
	}
}
