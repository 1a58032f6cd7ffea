package lab

import (
	"math"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/mcu"
	"repro/internal/programs"
	"repro/internal/source"
	"repro/internal/trace"
)

func TestRunStablePowerCompletes(t *testing.T) {
	s := Setup{
		Workload: programs.Fib(24, programs.DefaultLayout()),
		Params:   mcu.DefaultParams(),
		VSource:  &source.ConstantVoltage{V: 3.3, Rs: 50},
		C:        10e-6,
		Duration: 0.05,
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions == 0 {
		t.Fatal("no completions under stable power")
	}
	if res.WrongResults != 0 {
		t.Errorf("wrong results: %d", res.WrongResults)
	}
	if res.FirstCompletion <= 0 {
		t.Error("first completion time not recorded")
	}
	if len(res.CompletionTimes) != res.Completions {
		t.Error("completion times length mismatch")
	}
	if res.HarvestedJ <= 0 || res.ConsumedJ <= 0 {
		t.Error("energy accounting missing")
	}
	if res.FinalV <= 0 {
		t.Error("final voltage missing")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Setup{}); err == nil {
		t.Error("missing workload should error")
	}
	bad := Setup{Workload: &programs.Workload{Name: "x", Source: "FROB"}}
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "assemble") {
		t.Errorf("assembly failure should surface: %v", err)
	}
}

func TestRunDefaultDt(t *testing.T) {
	s := Setup{
		Workload: programs.Fib(5, programs.DefaultLayout()),
		Params:   mcu.DefaultParams(),
		VSource:  &source.ConstantVoltage{V: 3.3, Rs: 50},
		C:        10e-6,
		Duration: 0.001,
	}
	// Dt unset: must default rather than loop forever / divide by zero.
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
}

// recorderEvery returns a recorder that stores at most one sample per
// iv seconds of simulated time on each channel.
func recorderEvery(iv float64) *trace.Recorder {
	r := trace.NewRecorder()
	r.SetInterval(iv)
	return r
}

func TestRunRecordsSeries(t *testing.T) {
	s := Setup{
		Workload: programs.Fib(24, programs.DefaultLayout()),
		Params:   mcu.DefaultParams(),
		VSource:  &source.ConstantVoltage{V: 3.3, Rs: 50},
		C:        10e-6,
		Duration: 0.01,
		Recorder: recorderEvery(1e-4),
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	rec := s.Recorder
	for _, name := range []string{"vcc", "freq", "mode"} {
		sr := rec.Series(name)
		if sr == nil || sr.Len() == 0 {
			t.Errorf("series %q not recorded", name)
		}
	}
	// Interval respected: 0.01s / 1e-4 ≈ 100 samples, not 2000.
	if n := rec.Series("vcc").Len(); n > 150 {
		t.Errorf("recorder interval ignored: %d samples", n)
	}
}

func TestOnTickInvoked(t *testing.T) {
	ticks := 0
	s := Setup{
		Workload: programs.Fib(5, programs.DefaultLayout()),
		Params:   mcu.DefaultParams(),
		VSource:  &source.ConstantVoltage{V: 3.3, Rs: 50},
		C:        10e-6,
		Duration: 0.001,
		Dt:       1e-5,
		OnTick: func(tm float64, d *mcu.Device, rail *circuit.Rail) {
			ticks++
			if d == nil || rail == nil {
				t.Fatal("nil hook arguments")
			}
		},
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Errorf("OnTick fired %d times, want 100", ticks)
	}
}

func TestStepStopsAtChunkEnd(t *testing.T) {
	// Step(n) runs exactly n steps and returns, so a caller that stops
	// between Steps stops the run on the step it asked for.
	ticks := 0
	s := Setup{
		Workload: programs.Fib(24, programs.DefaultLayout()),
		Params:   mcu.DefaultParams(),
		VSource:  &source.ConstantVoltage{V: 3.3, Rs: 50},
		C:        10e-6,
		Duration: 0.05,
		OnTick:   func(float64, *mcu.Device, *circuit.Rail) { ticks++ },
	}
	m, err := Start(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{100, 107, 9999} {
		m.Step(want - ticks)
		if ticks != want || m.Done() {
			t.Fatalf("after stepping to %d: %d ticks, done=%v", want, ticks, m.Done())
		}
	}
	m.Step(1 << 30)
	if ticks != 10000 || !m.Done() {
		t.Errorf("a Step past the end: %d ticks, done=%v; want 10000, done", ticks, m.Done())
	}
	if res := m.Result(); res.Steps != 10000 || res.Completions == 0 {
		t.Errorf("result: %d steps, %d completions", res.Steps, res.Completions)
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Completions: 4, ConsumedJ: 8e-6}
	if got := r.Throughput(2); got != 2 {
		t.Errorf("throughput = %g", got)
	}
	if got := r.Throughput(0); got != 0 {
		t.Errorf("degenerate throughput = %g", got)
	}
	if got := r.EnergyPerCompletion(); math.Abs(got-2e-6) > 1e-18 {
		t.Errorf("energy/op = %g", got)
	}
	empty := Result{ConsumedJ: 1}
	if !math.IsInf(empty.EnergyPerCompletion(), 1) {
		t.Error("zero completions should be +Inf energy/op")
	}
}

func TestWrongResultDetection(t *testing.T) {
	// Deliberately corrupt the expected checksum: every completion must be
	// counted as wrong, none as correct.
	w := programs.Fib(10, programs.DefaultLayout())
	w.Expected++
	s := Setup{
		Workload: w,
		Params:   mcu.DefaultParams(),
		VSource:  &source.ConstantVoltage{V: 3.3, Rs: 50},
		C:        10e-6,
		Duration: 0.01,
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions != 0 {
		t.Error("corrupted expectation should yield zero correct completions")
	}
	if res.WrongResults == 0 {
		t.Error("wrong results not counted")
	}
}

func TestPowerSourceSetup(t *testing.T) {
	// A power source (rather than voltage source) must also drive the rail.
	s := Setup{
		Workload: programs.Fib(24, programs.DefaultLayout()),
		Params:   mcu.DefaultParams(),
		PSource:  &source.ConstantPower{P: 20e-3},
		C:        47e-6,
		Duration: 0.1,
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions == 0 {
		t.Error("power-source rail never ran the workload")
	}
}

func TestStepCountExactMultiples(t *testing.T) {
	// Quotients that land an ulp under the integer must not lose a step:
	// int(2.0/5e-6) is 399999, the silent tail-drop stepCount fixes.
	cases := []struct {
		duration, dt float64
		want         int
	}{
		{2.0, 5e-6, 400000},
		{0.5, 5e-6, 100000},
		{3.0, 5e-6, 600000},
		{5.0, 5e-6, 1000000},
		{1.0, 1e-5, 100000},
		{0.001, 5e-6, 200},
	}
	for _, tc := range cases {
		if got := stepCount(tc.duration, tc.dt); got != tc.want {
			t.Errorf("stepCount(%g, %g) = %d, want %d", tc.duration, tc.dt, got, tc.want)
		}
	}
}

func TestStepCountCoversFractionalTail(t *testing.T) {
	// 1.0/3e-6 is not an integer: the fractional tail must round up so
	// the simulated span covers the requested duration.
	got := stepCount(1.0, 3e-6)
	if got != 333334 {
		t.Errorf("stepCount(1.0, 3e-6) = %d, want 333334", got)
	}
	if span := float64(got) * 3e-6; span < 1.0 {
		t.Errorf("covered span %g < duration 1.0", span)
	}
	if got := stepCount(0, 5e-6); got != 0 {
		t.Errorf("stepCount(0, dt) = %d, want 0", got)
	}
	if got := stepCount(1, 0); got != 0 {
		t.Errorf("stepCount(d, 0) = %d, want 0", got)
	}
}

func TestObserveFeedsOnTickAndRecorder(t *testing.T) {
	// The shared observe helper must drive both hooks on the stepwise
	// path: OnTick every step, the trace triple at the recorder's cadence.
	rec := trace.NewRecorder()
	ticks := 0
	s := Setup{
		Workload: programs.Fib(8, programs.DefaultLayout()),
		Params:   mcu.DefaultParams(),
		VSource:  &source.ConstantVoltage{V: 3.3, Rs: 100},
		C:        10e-6,
		Duration: 0.001,
		Recorder: rec,
		OnTick:   func(t float64, d *mcu.Device, rail *circuit.Rail) { ticks++ },
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	steps := stepCount(s.Duration, 5e-6)
	if ticks != steps {
		t.Errorf("OnTick ran %d times, want %d", ticks, steps)
	}
	for _, name := range []string{"vcc", "freq", "mode"} {
		series := rec.Series(name)
		if series == nil || series.Len() == 0 {
			t.Errorf("series %q not recorded", name)
		}
	}
}
