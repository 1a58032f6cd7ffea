package experiments

import (
	"fmt"

	"repro/examples"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/trace"
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
// curated fig7-rectified-sine-hibernus spec, run with its trace.
func runFig7() (*Output, error) {
	sp, err := examples.Scenario("fig7-rectified-sine-hibernus")
	if err != nil {
		return nil, err
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{Trace: true, TraceInterval: 0.5e-3})
	if err != nil {
		return nil, err
	}
	c := rep.Cases[0]
	res := c.Result
	m, err := reported(c.Metrics, "v_h", "v_r")
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
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
		Recorder:    rep.Trace,
	}
	out.Tables = append(out.Tables, Table{
		Title:   "Run summary",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"supply", fmt.Sprintf("%.1f Hz half-wave rectified sine, %.1f V peak", supplyHz, float64(sp.Source.Params["amplitude"]))},
			{"V_H (eq. 4)", fmt.Sprintf("%.2f V", m["v_h"])},
			{"V_R", fmt.Sprintf("%.2f V", m["v_r"])},
			{"snapshots", fmt.Sprintf("%d", res.Stats.SavesDone)},
			{"restores", fmt.Sprintf("%d", res.Stats.Restores)},
			{"wakes without restore", fmt.Sprintf("%d", res.Stats.WakeNoRestore)},
			{"first FFT completion", fmt.Sprintf("%.1f ms (supply cycle %d)", res.FirstCompletion*1e3, completionCycle)},
			{"wrong results", fmt.Sprintf("%d", res.WrongResults)},
		},
	})
	if vcc := rep.Trace.Series("vcc"); vcc != nil {
		out.Plots = append(out.Plots, trace.Plot(vcc, 96, 14))
	}
	out.Note("paper: snapshot on each V_H crossing, restore at V_R, FFT completes in the 3rd supply cycle; measured completion in cycle %d with %d snapshots over %d cycles",
		completionCycle, res.Stats.SavesDone, int(float64(sp.Duration)/period))
	if res.WrongResults > 0 {
		return nil, fmt.Errorf("fig7: %d corrupted completions", res.WrongResults)
	}
	return out, nil
}

// runFig8 compares hibernus-PN against static-frequency hibernus on the
// turbine gust, reporting the DFS trace and the uninterrupted-operation
// window (the longest_on metric). The PN system is the curated
// powerneutral-wind-gust spec; the static baseline is the same spec
// under plain hibernus pinned at 16 MHz (DFS level 4).
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

	// The PN system and its static baseline share nothing but the supply —
	// run them as a two-case sweep.
	reps, err := sweep.Map(nil, 2, func(c sweep.Case) (*scenario.ModelReport, error) {
		sp := pnSpec
		if c.Index == 1 {
			sp = plainSpec
		}
		return scenario.RunModel(sp, scenario.RunOptions{Trace: true, TraceInterval: 2e-3})
	})
	if err != nil {
		return nil, err
	}
	pnCase, plainCase := reps[0].Cases[0], reps[1].Cases[0]
	pn, plain := pnCase.Result, plainCase.Result
	pnM, err := reported(pnCase.Metrics, "longest_on")
	if err != nil {
		return nil, fmt.Errorf("fig8: hibernus-pn: %w", err)
	}
	plainM, err := reported(plainCase.Metrics, "longest_on")
	if err != nil {
		return nil, fmt.Errorf("fig8: hibernus: %w", err)
	}
	pnOn, plainOn := pnM["longest_on"], plainM["longest_on"]

	out := &Output{
		ID:          "fig8",
		Description: "power-neutral DFS against a rectified wind turbine gust",
		Recorder:    reps[0].Trace,
	}
	out.Tables = append(out.Tables, Table{
		Title:   "hibernus-PN vs static-frequency hibernus (same supply)",
		Columns: []string{"metric", "hibernus-PN", "hibernus (16 MHz static)"},
		Rows: [][]string{
			{"completions", fmt.Sprintf("%d", pn.Completions), fmt.Sprintf("%d", plain.Completions)},
			{"snapshots", fmt.Sprintf("%d", pn.Stats.SavesStarted), fmt.Sprintf("%d", plain.Stats.SavesStarted)},
			{"restores", fmt.Sprintf("%d", pn.Stats.Restores), fmt.Sprintf("%d", plain.Stats.Restores)},
			{"longest uninterrupted run", fmt.Sprintf("%.2f s", pnOn), fmt.Sprintf("%.2f s", plainOn)},
			{"energy consumed", fmt.Sprintf("%.1f mJ", pn.ConsumedJ*1e3), fmt.Sprintf("%.1f mJ", plain.ConsumedJ*1e3)},
		},
	})
	if vcc := reps[0].Trace.Series("vcc"); vcc != nil {
		out.Plots = append(out.Plots, trace.Plot(vcc, 96, 12))
	}
	if freq := reps[0].Trace.Series("freq"); freq != nil {
		out.Plots = append(out.Plots, trace.Plot(freq, 96, 8))
	}
	out.Note("paper: DFS modulation sustains V_CC through the gust without save/restore overhead; measured uninterrupted window %.2f s (PN) vs %.2f s (static), snapshots %d vs %d",
		pnOn, plainOn, pn.Stats.SavesStarted, plain.Stats.SavesStarted)
	return out, nil
}
