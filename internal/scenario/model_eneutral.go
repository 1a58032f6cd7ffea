package scenario

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/eneutral"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/units"
)

func init() { RegisterModel("eneutral", eneutralModel{}) }

// eneutralModel is the paper's §II.A energy-neutral computing: a sensor
// node buffering harvested energy in meaningful storage and adapting
// its duty cycle so that consumption equals harvest over a period
// matched to the energy environment (eq. 1) while the buffer keeps the
// supply alive (eq. 2) — the Kansal et al. [3] approach. The battery is
// sized through model params (joules, not farads), so the spec's
// storage block does not apply.
type eneutralModel struct{}

func (eneutralModel) Desc() string {
	return "energy-neutral duty-cycled sensor node: Kansal-style adaptive duty cycling over long-horizon sources (eq. 1/2)"
}

func (eneutralModel) Params() []registry.ParamDoc {
	return []registry.ParamDoc{
		{Key: "batteryj", Default: 200, Desc: "battery capacity (J)"},
		{Key: "soc0", Default: 0.6, Desc: "initial state of charge (0..1)"},
		{Key: "pactive", Default: 60e-3, Desc: "consumption while performing duty (W)"},
		{Key: "psleep", Default: 60e-6, Desc: "sleep floor (W)"},
		{Key: "duty0", Default: 0.2, Desc: "initial duty cycle (0..1)"},
		{Key: "window", Default: 86400, Desc: "eq. (1) neutrality window (s); 24 h for solar"},
		{Key: "ctrlperiod", Default: 3600, Desc: "seconds between controller epochs"},
		{Key: "fixedduty", Default: 0, Desc: "fixed duty cycle; 0 selects the Kansal adaptive controller"},
	}
}

func (eneutralModel) Metrics() []MetricDoc {
	return []MetricDoc{
		{Key: "harvested", Unit: "J", Desc: "energy harvested over the run"},
		{Key: "consumed", Unit: "J", Desc: "energy consumed over the run"},
		{Key: "violations", Unit: "count", Desc: "eq. 2 violations (storage depleted, node dead)"},
		{Key: "downtime", Unit: "s", Desc: "time spent dead"},
		{Key: "active_sec", Unit: "s", Desc: "duty-weighted productive time"},
		{Key: "final_soc", Unit: "ratio", Desc: "final battery state of charge (0..1)"},
		{Key: "mean_duty", Unit: "ratio", Desc: "mean controller duty cycle (0..1)"},
		{Key: "worst_window", Unit: "ratio", Desc: "largest eq. 1 imbalance ratio (absent before the first window completes)"},
		{Key: "windows", Unit: "count", Desc: "completed eq. 1 neutrality windows"},
	}
}

// eneutralMetrics extracts the structured objectives from one
// energy-neutral case. worst_window is omitted until a window completes.
// A valid source near MaxFloat64 watts overflows the harvest sum to +Inf
// and the window ratios to NaN; both are then omitted too.
func eneutralMetrics(res eneutral.Result, duty0 float64) map[string]float64 {
	m := map[string]float64{
		"consumed":   res.ConsumedJ,
		"violations": float64(res.Violations),
		"downtime":   res.DowntimeSec,
		"active_sec": res.ActiveSec,
		"final_soc":  res.FinalSoC,
		"mean_duty":  meanDuty(res, duty0),
		"windows":    float64(len(res.Windows)),
	}
	if h := res.HarvestedJ; !math.IsNaN(h) && !math.IsInf(h, 0) {
		m["harvested"] = h
	}
	if w := res.WorstWindow(); !math.IsNaN(w) && !math.IsInf(w, 0) {
		m["worst_window"] = w
	}
	return m
}

// eneutralDefaultDt is the integration step when the spec leaves dt
// unset: duty-cycle planning evolves over hours, so one-second steps
// resolve it with day-scale durations still cheap.
const eneutralDefaultDt = 1.0

// Validate implements Model.
func (m eneutralModel) Validate(s *Spec) error {
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
	if p["batteryj"] <= 0 {
		return s.errf("model param batteryj must be positive (got %g J)", p["batteryj"])
	}
	if p["soc0"] < 0 || p["soc0"] > 1 {
		return s.errf("model param soc0 must be in [0, 1] (got %g)", p["soc0"])
	}
	if p["duty0"] < 0 || p["duty0"] > 1 {
		return s.errf("model param duty0 must be in [0, 1] (got %g)", p["duty0"])
	}
	if p["fixedduty"] < 0 || p["fixedduty"] > 1 {
		return s.errf("model param fixedduty must be in [0, 1] (got %g)", p["fixedduty"])
	}
	if p["pactive"] <= 0 || p["psleep"] < 0 {
		return s.errf("model params need pactive > 0 and psleep ≥ 0 (got pactive=%g, psleep=%g)",
			p["pactive"], p["psleep"])
	}
	if p["window"] <= 0 {
		return s.errf("model param window must be positive (got %g s)", p["window"])
	}
	if p["ctrlperiod"] <= 0 {
		return s.errf("model param ctrlperiod must be positive (got %g s)", p["ctrlperiod"])
	}
	return nil
}

func (eneutralModel) sweepHeader() []column {
	return columns(12, "harvested", "consumed", "worst-win", "deaths", "final-soc", "mean-duty")
}

func (m eneutralModel) newRun(sp *Spec, rec *trace.Recorder) (modelRun, error) {
	p, err := sp.modelParams(m)
	if err != nil {
		return nil, sp.errf("%w", err)
	}
	ps, err := sp.buildPowerSource()
	if err != nil {
		return nil, err
	}
	node := eneutral.NewNode(p["batteryj"], p["soc0"], ps)
	node.PActive = p["pactive"]
	node.PSleep = p["psleep"]
	node.Duty = p["duty0"]
	node.CtrlPeriod = p["ctrlperiod"]
	if p["fixedduty"] > 0 {
		node.Controller = &eneutral.FixedController{Value: p["fixedduty"]}
	} else {
		node.Controller = eneutral.NewKansal()
	}
	dt := float64(sp.Dt)
	if dt <= 0 {
		dt = eneutralDefaultDt
	}
	r := &eneutralRun{
		Sim: eneutral.NewSim(node, float64(sp.Duration), dt, p["window"]),
		sp:  sp, p: p, node: node,
	}
	if rec != nil {
		r.record(rec)
	}
	return r, nil
}

// eneutralRun is one sweep-free energy-neutral case.
type eneutralRun struct {
	*eneutral.Sim
	sp   *Spec
	p    registry.Params
	node *eneutral.Node
}

func (r *eneutralRun) state() any { return r.State() }

func (r *eneutralRun) restore(sim []byte) error { return restoreJSON(sim, r.Restore) }

func (r *eneutralRun) record(rec *trace.Recorder) {
	socCh := rec.Channel("soc", "")
	dutyCh := rec.Channel("duty", "")
	harvestCh := rec.Channel("harvest", "W")
	harvest := r.node.Harvest
	r.node.Observe = func(t, soc, duty float64, dead bool) {
		// One gate per instant, checked before the harvest is re-sampled.
		if !socCh.Due(t) {
			return
		}
		socCh.Record(t, soc)
		dutyCh.Record(t, duty)
		harvestCh.Record(t, harvest.Power(t))
	}
}

func (r *eneutralRun) report() string {
	res := r.Result()
	sp, p, node := r.sp, r.p, r.node
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "scenario %s: energy-neutral duty cycling on %s, %gs\n",
		sp.Name, sp.Source.Name, float64(sp.Duration))
	fmt.Fprintf(&buf, "  controller:         %s (epoch %gs, window %gs)\n",
		node.Controller.Name(), p["ctrlperiod"], p["window"])
	fmt.Fprintf(&buf, "  duty cycle:         start %.1f%%, final %.1f%% (mean %.1f%%)\n",
		p["duty0"]*100, node.Duty*100, meanDuty(res, p["duty0"])*100)
	fmt.Fprintf(&buf, "  energy:             harvested %s, consumed %s\n",
		units.Format(res.HarvestedJ, "J"), units.Format(res.ConsumedJ, "J"))
	fmt.Fprintf(&buf, "  eq.(1) windows:     %d complete, worst imbalance %s\n",
		len(res.Windows), worstWindowLabel(res))
	fmt.Fprintf(&buf, "  eq.(2) violations:  %d (downtime %.1fs)\n", res.Violations, res.DowntimeSec)
	fmt.Fprintf(&buf, "  battery:            %s, final SoC %.1f%%\n",
		units.Format(p["batteryj"], "J"), res.FinalSoC*100)
	fmt.Fprintf(&buf, "  productive time:    %.1fs (%.1f%% of run)\n",
		res.ActiveSec, res.ActiveSec/float64(sp.Duration)*100)
	return buf.String()
}

func (r *eneutralRun) cells() []string {
	res := r.Result()
	return []string{
		units.Format(res.HarvestedJ, "J"),
		units.Format(res.ConsumedJ, "J"),
		worstWindowLabel(res),
		fmt.Sprintf("%d", res.Violations),
		fmt.Sprintf("%.1f%%", res.FinalSoC*100),
		fmt.Sprintf("%.1f%%", meanDuty(res, r.p["duty0"])*100),
	}
}

func (r *eneutralRun) outcome() ModelCase {
	return ModelCase{Metrics: eneutralMetrics(r.Result(), r.p["duty0"])}
}

// meanDuty averages the controller's duty decisions (the fallback —
// the initial duty — when no epoch completed).
func meanDuty(res eneutral.Result, fallback float64) float64 {
	if len(res.DutyTrace) == 0 {
		return fallback
	}
	sum := 0.0
	for _, d := range res.DutyTrace {
		sum += d
	}
	return sum / float64(len(res.DutyTrace))
}

// worstWindowLabel renders the largest eq. (1) imbalance ratio ("n/a"
// before the first window completes).
func worstWindowLabel(res eneutral.Result) string {
	w := res.WorstWindow()
	if math.IsInf(w, 1) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", w*100)
}
