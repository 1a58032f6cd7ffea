package scenario

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/mpsoc"
	"repro/internal/registry"
	"repro/internal/trace"
)

func init() { RegisterModel("mpsoc", mpsocModel{}) }

// mpsocModel is the paper's §II.C power-neutral MPSoC (Fig. 5 and
// reference [11]): an ODROID XU-4-class big.LITTLE board whose runtime
// policy picks, at every control step, the highest-FPS operating point
// (per-cluster DVFS × hot-plugged core count) whose power fits the
// instantaneously harvested budget. The spec's power source, scaled by
// the "scale" param, is the budget; Storage and the lab blocks
// (workload/device/runtime/governor) do not apply — the board's
// decoupling storage is parasitic by definition (eq. 3 with T small).
type mpsocModel struct{}

func (mpsocModel) Desc() string {
	return "power-neutral big.LITTLE MPSoC: operating-point governor tracking a harvested power budget (Fig. 5)"
}

func (mpsocModel) Params() []registry.ParamDoc {
	return []registry.ParamDoc{
		{Key: "scale", Default: 1, Desc: "multiplier from source power to board budget (W/W)"},
	}
}

func (mpsocModel) Metrics() []MetricDoc {
	return []MetricDoc{
		{Key: "frames", Unit: "count", Desc: "frames rendered over the run"},
		{Key: "mean_fps", Unit: "fps", Desc: "mean frame rate"},
		{Key: "budget_w", Unit: "W", Desc: "mean harvested power budget"},
		{Key: "used_w", Unit: "W", Desc: "mean power drawn by the selected operating points"},
		{Key: "utilization", Unit: "ratio", Desc: "used power over budget (0..1)"},
		{Key: "peak_budget_w", Unit: "W", Desc: "largest budget sustained for a full control step"},
		{Key: "switches", Unit: "count", Desc: "operating-point changes"},
		{Key: "starved", Unit: "count", Desc: "control steps with no affordable operating point"},
		{Key: "frontier", Unit: "count", Desc: "operating points on the power/FPS Pareto frontier"},
	}
}

// mpsocMetrics extracts the structured objectives from one mpsoc case.
// The budget metrics are omitted when the budget overflowed to ±Inf
// (a valid source scaled past MaxFloat64) or is NaN.
func mpsocMetrics(res mpsoc.SimResult, tab *mpsoc.Table) map[string]float64 {
	m := map[string]float64{
		"frames":      res.Frames,
		"mean_fps":    res.MeanFPS,
		"used_w":      res.MeanUsedW,
		"utilization": res.Utilization,
		"switches":    float64(res.Switches),
		"starved":     float64(res.Starved),
		"frontier":    float64(len(tab.Frontier)),
	}
	if w := res.MeanBudgetW; !math.IsNaN(w) && !math.IsInf(w, 0) {
		m["budget_w"] = w
	}
	if w := res.MaxSustainedW; !math.IsNaN(w) && !math.IsInf(w, 0) {
		m["peak_budget_w"] = w
	}
	return m
}

// mpsocDefaultDt is the control period when the spec leaves dt unset:
// the governor of [11] re-selects operating points at a second-scale
// cadence, far from the lab engine's microsecond stepping.
const mpsocDefaultDt = 1.0

// Validate implements Model.
func (m mpsocModel) Validate(s *Spec) error {
	if err := s.rejectLabFields(); err != nil {
		return err
	}
	if err := s.rejectStorage(); err != nil {
		return err
	}
	if _, err := s.buildPowerSource(); err != nil {
		return err
	}
	p, err := s.modelParams(m)
	if err != nil {
		return s.errf("%w", err)
	}
	if p["scale"] <= 0 {
		return s.errf("model param scale must be positive (got %g)", p["scale"])
	}
	return nil
}

func (mpsocModel) sweepHeader() []column {
	return columns(12, "frames", "mean-fps", "used-W", "util", "switches", "starved")
}

func (m mpsocModel) newRun(sp *Spec, rec *trace.Recorder) (modelRun, error) {
	p, err := sp.modelParams(m)
	if err != nil {
		return nil, sp.errf("%w", err)
	}
	ps, err := sp.buildPowerSource()
	if err != nil {
		return nil, err
	}
	scale := p["scale"]
	budget := func(t float64) float64 { return scale * ps.Power(t) }
	tab := mpsoc.XU4Table()
	// Each run has its own Selector, since record sets its Observe; the
	// frontier it reads is the process-wide table's.
	sel := &mpsoc.Selector{Frontier: tab.Frontier}
	dt := float64(sp.Dt)
	if dt <= 0 {
		dt = mpsocDefaultDt
	}
	r := &mpsocRun{Sim: mpsoc.NewSim(sel, budget, float64(sp.Duration), dt), sp: sp, sel: sel, tab: tab}
	if rec != nil {
		r.record(rec)
	}
	return r, nil
}

// mpsocRun is one sweep-free power-neutral MPSoC case.
type mpsocRun struct {
	*mpsoc.Sim
	sp  *Spec
	sel *mpsoc.Selector
	tab *mpsoc.Table
}

func (r *mpsocRun) state() any { return r.State() }

func (r *mpsocRun) restore(sim []byte) error { return restoreJSON(sim, r.Restore) }

func (r *mpsocRun) record(rec *trace.Recorder) {
	budgetCh := rec.Channel("budget", "W")
	usedCh := rec.Channel("used", "W")
	fpsCh := rec.Channel("fps", "fps")
	r.sel.Observe = func(t, w float64, op mpsoc.OperatingPoint, ok bool) {
		if !budgetCh.Due(t) {
			return
		}
		budgetCh.Record(t, w)
		usedCh.Record(t, op.PowerW)
		fpsCh.Record(t, op.FPS)
	}
}

func (r *mpsocRun) report() string {
	res := r.Result()
	tab := r.tab
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "scenario %s: mpsoc power-neutral governor on %s, %gs\n",
		r.sp.Name, r.sp.Source.Name, float64(r.sp.Duration))
	fmt.Fprintf(&buf, "  operating points:   %d (pareto frontier %d)\n", tab.Points, len(tab.Frontier))
	fmt.Fprintf(&buf, "  power range:        %.2fW – %.2fW (%.1fx modulation)\n", tab.MinW, tab.MaxW, tab.MaxW/tab.MinW)
	fmt.Fprintf(&buf, "  frames rendered:    %.1f (mean %.2f fps)\n", res.Frames, res.MeanFPS)
	fmt.Fprintf(&buf, "  power budget:       mean %.3fW, used %.3fW (%.1f%% utilization)\n",
		res.MeanBudgetW, res.MeanUsedW, res.Utilization*100)
	fmt.Fprintf(&buf, "  peak budget:        %.3fW\n", res.MaxSustainedW)
	fmt.Fprintf(&buf, "  op switches:        %d (starved %d of %d steps)\n",
		res.Switches, res.Starved, res.Steps)
	return buf.String()
}

func (r *mpsocRun) cells() []string {
	res := r.Result()
	return []string{
		fmt.Sprintf("%.1f", res.Frames),
		fmt.Sprintf("%.2f", res.MeanFPS),
		fmt.Sprintf("%.3f", res.MeanUsedW),
		fmt.Sprintf("%.1f%%", res.Utilization*100),
		fmt.Sprintf("%d", res.Switches),
		fmt.Sprintf("%d", res.Starved),
	}
}

func (r *mpsocRun) outcome() ModelCase { return ModelCase{Metrics: mpsocMetrics(r.Result(), r.tab)} }
