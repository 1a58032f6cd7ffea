package experiments

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/transient"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "hibernus executing an FFT across a half-wave rectified sine supply",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "hibernus-PN: DFS modulation against a rectified micro wind turbine",
		Run:   runFig8,
	})
}

// fig7SupplyHz is the supply frequency for the Fig. 7 reproduction. The
// paper drives hibernus from a signal generator; the published waveform
// uses a low-frequency half-wave rectified sine with the FFT completing in
// the third supply cycle.
const fig7SupplyHz = 20.0

// Fig7Spec is the declarative form of the Fig. 7 reproduction — the same
// values as examples/scenarios/fig7-rectified-sine-hibernus.json (a test
// pins the two together), so `ehsim -scenario` on that file reproduces
// this harness's numbers exactly.
func Fig7Spec() *scenario.Spec {
	return &scenario.Spec{
		Name:        "fig7-rectified-sine-hibernus",
		Description: "Hibernus executing a 128-point FFT across a 20 Hz half-wave rectified sine supply: one snapshot per dip at V_H, restore/wake at V_R, completion a few supply cycles after the start. This file is the declarative twin of the registered fig7 experiment (cmd/figures -only fig7); a test pins the two together.",
		Paper:       "conf_date_MerrettA17 §III, Fig. 7",
		Workload:    "fft128",
		Device:      scenario.DeviceSpec{FreqIndex: scenario.IntPtr(1)}, // 2 MHz: the FFT spans several supply cycles
		Storage:     scenario.StorageSpec{C: 10e-6},
		Source: scenario.SourceSpec{
			Name: "rectified-sine",
			Params: map[string]scenario.Value{
				"amplitude": 3.6, "freq": fig7SupplyHz, "rs": 150, "diodev": 0.2,
			},
		},
		Runtime: scenario.RuntimeSpec{
			Name:   "hibernus",
			Params: map[string]scenario.Value{"margin": 1.05, "vrheadroom": 0.3},
		},
		Duration: 0.5,
	}
}

// runFig7 reproduces the hibernus waveform: V_CC riding the rectified
// supply, a single snapshot per dip at V_H, a restore/wake at V_R, and the
// FFT completing a few supply cycles after it started. The Setup is
// compiled from Fig7Spec — the declarative round trip — with the
// harness-only observers (recorder, runtime capture) layered on after
// compilation.
func runFig7() (*Output, error) {
	rec := trace.NewRecorder()
	rec.SetInterval(0.5e-3)

	s, err := Fig7Spec().Setup()
	if err != nil {
		return nil, err
	}
	var h *transient.Hibernus
	makeRuntime := s.MakeRuntime
	s.MakeRuntime = func(d *mcu.Device) mcu.Runtime {
		rt := makeRuntime(d)
		h = rt.(*transient.Hibernus)
		return rt
	}
	s.Recorder = rec
	res, err := lab.Run(s)
	if err != nil {
		return nil, err
	}

	period := 1.0 / fig7SupplyHz
	completionCycle := -1
	if res.FirstCompletion >= 0 {
		completionCycle = int(res.FirstCompletion/period) + 1
	}
	out := &Output{
		ID:          "fig7",
		Description: "hibernus riding a half-wave rectified sine; FFT completes across supply cycles",
		Recorder:    rec,
	}
	out.Tables = append(out.Tables, Table{
		Title:   "Run summary",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"supply", fmt.Sprintf("%.1f Hz half-wave rectified sine, 3.6 V peak", fig7SupplyHz)},
			{"V_H (eq. 4)", fmt.Sprintf("%.2f V", h.VH)},
			{"V_R", fmt.Sprintf("%.2f V", h.VR)},
			{"snapshots", fmt.Sprintf("%d", res.Stats.SavesDone)},
			{"restores", fmt.Sprintf("%d", res.Stats.Restores)},
			{"wakes without restore", fmt.Sprintf("%d", res.Stats.WakeNoRestore)},
			{"first FFT completion", fmt.Sprintf("%.1f ms (supply cycle %d)", res.FirstCompletion*1e3, completionCycle)},
			{"wrong results", fmt.Sprintf("%d", res.WrongResults)},
		},
	})
	if vcc := rec.Series("vcc"); vcc != nil {
		out.Plots = append(out.Plots, trace.Plot(vcc, 96, 14))
	}
	out.Note("paper: snapshot on each V_H crossing, restore at V_R, FFT completes in the 3rd supply cycle; measured completion in cycle %d with %d snapshots over %d cycles",
		completionCycle, res.Stats.SavesDone, int(0.5/period))
	if res.WrongResults > 0 {
		return nil, fmt.Errorf("fig7: %d corrupted completions", res.WrongResults)
	}
	return out, nil
}

// fig8Spec is the Fig. 8 testbed: an FFT-64 on the registry's default
// wind gust behind a 330 µF rail, under hibernus-PN — or, for the static
// baseline, plain hibernus pinned at 16 MHz (DFS level 4).
func fig8Spec(pn bool) *scenario.Spec {
	sp := &scenario.Spec{
		Name:     "fig8",
		Workload: "fft64",
		Storage:  scenario.StorageSpec{C: 330e-6},
		Source:   scenario.SourceSpec{Name: "wind"},
		Runtime:  scenario.RuntimeSpec{Name: "hibernus-pn"},
		Duration: 5.0,
	}
	if !pn {
		sp.Runtime.Name = "hibernus"
		sp.Device.FreqIndex = scenario.IntPtr(4)
	}
	return sp
}

// runFig8 compares hibernus-PN against static-frequency hibernus on the
// turbine gust, reporting the DFS trace and the uninterrupted-operation
// window.
func runFig8() (*Output, error) {
	type runOut struct {
		res     lab.Result
		stretch float64
		rec     *trace.Recorder
	}
	run := func(pn bool) (runOut, error) {
		s, err := fig8Spec(pn).Setup()
		if err != nil {
			return runOut{}, err
		}
		rec := trace.NewRecorder()
		rec.SetInterval(2e-3)
		s.Recorder = rec
		var longest, cur, last float64
		s.OnTick = func(t float64, d *mcu.Device, rail *circuit.Rail) {
			dt := t - last
			last = t
			switch d.Mode() {
			case mcu.ModeActive, mcu.ModeSaving, mcu.ModeRestoring:
				cur += dt
				longest = math.Max(longest, cur)
			default:
				cur = 0
			}
		}
		res, err := lab.Run(s)
		return runOut{res: res, stretch: longest, rec: rec}, err
	}

	// The PN system and its static baseline share nothing but the supply —
	// run them as a two-case sweep.
	outs, err := sweep.Map(nil, 2, func(c sweep.Case) (runOut, error) {
		return run(c.Index == 0)
	})
	if err != nil {
		return nil, err
	}
	pn, plain := outs[0], outs[1]

	out := &Output{
		ID:          "fig8",
		Description: "power-neutral DFS against a rectified wind turbine gust",
		Recorder:    pn.rec,
	}
	out.Tables = append(out.Tables, Table{
		Title:   "hibernus-PN vs static-frequency hibernus (same supply)",
		Columns: []string{"metric", "hibernus-PN", "hibernus (16 MHz static)"},
		Rows: [][]string{
			{"completions", fmt.Sprintf("%d", pn.res.Completions), fmt.Sprintf("%d", plain.res.Completions)},
			{"snapshots", fmt.Sprintf("%d", pn.res.Stats.SavesStarted), fmt.Sprintf("%d", plain.res.Stats.SavesStarted)},
			{"restores", fmt.Sprintf("%d", pn.res.Stats.Restores), fmt.Sprintf("%d", plain.res.Stats.Restores)},
			{"longest uninterrupted run", fmt.Sprintf("%.2f s", pn.stretch), fmt.Sprintf("%.2f s", plain.stretch)},
			{"energy consumed", fmt.Sprintf("%.1f mJ", pn.res.ConsumedJ*1e3), fmt.Sprintf("%.1f mJ", plain.res.ConsumedJ*1e3)},
		},
	})
	if vcc := pn.rec.Series("vcc"); vcc != nil {
		out.Plots = append(out.Plots, trace.Plot(vcc, 96, 12))
	}
	if freq := pn.rec.Series("freq"); freq != nil {
		out.Plots = append(out.Plots, trace.Plot(freq, 96, 8))
	}
	out.Note("paper: DFS modulation sustains V_CC through the gust without save/restore overhead; measured uninterrupted window %.2f s (PN) vs %.2f s (static), snapshots %d vs %d",
		pn.stretch, plain.stretch, pn.res.Stats.SavesStarted, plain.res.Stats.SavesStarted)
	return out, nil
}
