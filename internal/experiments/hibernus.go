package experiments

import (
	"fmt"
	"math"

	"repro/examples"
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

// runFig7 reproduces the hibernus waveform: V_CC riding the rectified
// supply, a single snapshot per dip at V_H, a restore/wake at V_R, and the
// FFT completing a few supply cycles after it started. The testbed is the
// curated fig7-rectified-sine-hibernus spec; the harness adds only its
// observers (recorder, V_H/V_R capture).
func runFig7() (*Output, error) {
	sp, err := examples.Scenario("fig7-rectified-sine-hibernus")
	if err != nil {
		return nil, err
	}
	s, err := sp.Setup()
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	rec.SetInterval(0.5e-3)
	s.Recorder = rec
	var h *transient.Hibernus
	captureHibernus(&s, &h)
	res, err := lab.Run(s)
	if err != nil {
		return nil, err
	}

	supplyHz := float64(sp.Source.Params["freq"])
	period := 1.0 / supplyHz
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
			{"supply", fmt.Sprintf("%.1f Hz half-wave rectified sine, %.1f V peak", supplyHz, float64(sp.Source.Params["amplitude"]))},
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
		completionCycle, res.Stats.SavesDone, int(float64(sp.Duration)/period))
	if res.WrongResults > 0 {
		return nil, fmt.Errorf("fig7: %d corrupted completions", res.WrongResults)
	}
	return out, nil
}

// captureHibernus wraps s's runtime factory so that, once lab.Run has
// built the runtime, *h is the hibernus instance and its calibrated
// V_H/V_R can be read.
func captureHibernus(s *lab.Setup, h **transient.Hibernus) {
	makeRuntime := s.MakeRuntime
	s.MakeRuntime = func(d *mcu.Device) mcu.Runtime {
		rt := makeRuntime(d)
		*h = rt.(*transient.Hibernus)
		return rt
	}
}

// runFig8 compares hibernus-PN against static-frequency hibernus on the
// turbine gust, reporting the DFS trace and the uninterrupted-operation
// window. The PN system is the curated powerneutral-wind-gust spec; the
// static baseline is the same spec under plain hibernus pinned at 16 MHz
// (DFS level 4).
func runFig8() (*Output, error) {
	pnSpec, err := examples.Scenario("powerneutral-wind-gust")
	if err != nil {
		return nil, err
	}
	plainSpec := pnSpec.Clone()
	if err := plainSpec.Apply("runtime", "hibernus"); err != nil {
		return nil, err
	}
	if err := plainSpec.Apply("freqindex", 4.0); err != nil {
		return nil, err
	}

	type runOut struct {
		res     lab.Result
		stretch float64
		rec     *trace.Recorder
	}
	run := func(sp *scenario.Spec) (runOut, error) {
		s, err := sp.Setup()
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
		if c.Index == 0 {
			return run(pnSpec)
		}
		return run(plainSpec)
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
