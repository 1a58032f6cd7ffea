package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mpsoc"
	"repro/internal/source"
	"repro/internal/trace"
	"repro/internal/units"
)

func init() {
	register(Experiment{
		ID:    "fig1a",
		Title: "Micro wind turbine output voltage during a single gust",
		Run:   runFig1a,
	})
	register(Experiment{
		ID:    "fig1b",
		Title: "Indoor photovoltaic harvested power over two days",
		Run:   runFig1b,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Taxonomy of energy-neutral, transient, energy-driven and power-neutral systems",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "ODROID XU-4 raytrace performance vs board power across DVFS/hot-plug operating points",
		Run:   runFig5,
	})
}

// runFig1a regenerates the wind turbine gust waveform: ±6 V AC at a few Hz
// under a single gust envelope over 8 s.
func runFig1a() (*Output, error) {
	w := source.DefaultWindTurbine()
	rec := trace.NewRecorder()
	vout, envelope := rec.Channel("vout", "V"), rec.Channel("envelope", "")
	for t := 0.0; t <= 8.0; t += 1e-3 {
		vout.Record(t, w.Voltage(t))
		envelope.Record(t, w.Envelope(t))
	}
	s := rec.Series("vout")
	st := s.Summarize()
	out := &Output{
		ID:          "fig1a",
		Description: "micro wind turbine gust: AC voltage, gust envelope",
		Recorder:    rec,
	}
	out.Tables = append(out.Tables, Table{
		Title:   "Waveform summary",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"peak voltage", fmt.Sprintf("%+.2f V", st.Max)},
			{"trough voltage", fmt.Sprintf("%+.2f V", st.Min)},
			{"AC frequency", fmt.Sprintf("%.1f Hz", w.ACFrequency)},
			{"gust span", fmt.Sprintf("%.1f s window", 8.0)},
		},
	})
	out.Plots = append(out.Plots, trace.Plot(s, 90, 14))
	out.Note("paper: ±6 V AC at several Hz across one gust; measured peak %+.2f/%+.2f V at %.1f Hz",
		st.Max, st.Min, w.ACFrequency)
	return out, nil
}

// runFig1b regenerates the indoor PV profile: harvested current between
// ≈280 and ≈430 µA across two diurnal cycles.
func runFig1b() (*Output, error) {
	p := source.DefaultPhotovoltaic()
	rec := trace.NewRecorder()
	iharvest := rec.Channel("iharvest", "µA")
	for t := 0.0; t <= 2*units.Day; t += 60 {
		iharvest.Record(t, p.Current(t)*1e6)
	}
	s := rec.Series("iharvest")
	st := s.Summarize()
	out := &Output{
		ID:          "fig1b",
		Description: "indoor photovoltaic harvested current over two days",
		Recorder:    rec,
	}
	out.Tables = append(out.Tables, Table{
		Title:   "Profile summary",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"overnight floor", fmt.Sprintf("%.0f µA", st.Min)},
			{"midday peak", fmt.Sprintf("%.0f µA", st.Max)},
			{"diurnal cycles", "2"},
		},
	})
	out.Plots = append(out.Plots, trace.Plot(s, 96, 12))
	out.Note("paper: 280–430 µA band over two days; measured %.0f–%.0f µA", st.Min, st.Max)
	return out, nil
}

// runFig2 renders the taxonomy placement of the paper's example systems.
func runFig2() (*Output, error) {
	systems := core.ByAutonomy(core.Registry())
	tbl := Table{
		Title: "Fig. 2 taxonomy (sorted along the storage axis, least storage first)",
		Columns: []string{"system", "ref", "storage", "autonomy", "axis",
			"adaptation", "power-neutral", "region"},
	}
	for _, s := range systems {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			s.Name,
			s.Ref,
			units.Format(s.StorageJ, "J"),
			units.FormatSeconds(s.AutonomySec()),
			s.Axis(),
			s.Adaptation.String(),
			fmt.Sprintf("%v", s.PowerNeutral),
			s.Region(),
		})
	}
	out := &Output{
		ID:          "fig2",
		Description: "energy-based taxonomy of computing systems",
		Tables:      []Table{tbl},
	}
	edCount := 0
	for _, s := range systems {
		if s.EnergyDriven {
			edCount++
		}
	}
	out.Note("%d/%d systems fall in the energy-driven region; storage spans %s to %s of autonomy",
		edCount, len(systems),
		units.FormatSeconds(systems[0].AutonomySec()),
		units.FormatSeconds(systems[len(systems)-1].AutonomySec()))
	return out, nil
}

// runFig5 enumerates the MPSoC operating points and reports the
// performance/power scatter and its Pareto frontier.
func runFig5() (*Output, error) {
	b := mpsoc.XU4()
	pts := b.OperatingPoints()
	minW, maxW := mpsoc.PowerRange(pts)
	var maxFPS float64
	scatter := make([]trace.ScatterPoint, 0, len(pts))
	for _, p := range pts {
		maxFPS = math.Max(maxFPS, p.FPS)
		scatter = append(scatter, trace.ScatterPoint{X: p.PowerW, Y: p.FPS})
	}
	front := mpsoc.ParetoFrontier(pts)

	frontier := Table{
		Title:   "Pareto frontier (every 4th point)",
		Columns: []string{"configuration", "power (W)", "raytrace FPS"},
	}
	for i, p := range front {
		if i%4 != 0 && i != len(front)-1 {
			continue
		}
		frontier.Rows = append(frontier.Rows, []string{
			p.Label(b), fmt.Sprintf("%.2f", p.PowerW), fmt.Sprintf("%.4f", p.FPS),
		})
	}
	summary := Table{
		Title:   "Operating-point summary",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"operating points", fmt.Sprintf("%d", len(pts))},
			{"power range", fmt.Sprintf("%.2f – %.2f W", minW, maxW)},
			{"modulation ratio", fmt.Sprintf("%.1f×", maxW/minW)},
			{"peak FPS", fmt.Sprintf("%.3f", maxFPS)},
			{"frontier size", fmt.Sprintf("%d", len(front))},
		},
	}
	out := &Output{
		ID:          "fig5",
		Description: "power/performance operating points of the big.LITTLE MPSoC raytracer",
		Tables:      []Table{summary, frontier},
	}
	out.Plots = append(out.Plots,
		trace.Scatter("Fig. 5: raytrace FPS vs board power", "W", "FPS", scatter, 90, 18))
	out.Note("paper: order-of-magnitude power modulation, ≈0.22 FPS peak near 18 W; measured %.1f× over %.1f–%.1f W, peak %.3f FPS",
		maxW/minW, minW, maxW, maxFPS)
	return out, nil
}
