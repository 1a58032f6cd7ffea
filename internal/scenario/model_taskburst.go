package scenario

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/registry"
	"repro/internal/taskburst"
	"repro/internal/trace"
	"repro/internal/units"
)

func init() { RegisterModel("taskburst", taskburstModel{}) }

// taskburstModel is the paper's §II.B task-based transient system:
// charge a small capacitor from the harvester, fire one atomic task when
// the stored energy above the operating floor covers it, repeat —
// WISPCam's photo-per-charge, Monjolo's ping-per-charge, Gomez et al.'s
// burst scaling. The fire threshold V_fire is sized from the task
// energy, the storage capacitance, and the converter efficiency (the
// eq. 4 sizing), so the spec states the physics and the model derives
// the thresholds.
type taskburstModel struct{}

func (taskburstModel) Desc() string {
	return "charge-and-fire task-based transient node: one atomic task per capacitor charge (WISPCam/Monjolo)"
}

func (taskburstModel) Params() []registry.ParamDoc {
	return []registry.ParamDoc{
		{Key: "taskenergy", Default: 1e-3, Desc: "energy per atomic task (J); default is the Monjolo ping"},
		{Key: "vfloor", Default: 1.8, Desc: "minimum useful operating voltage (V)"},
		{Key: "vmax", Default: 5.5, Desc: "capacitor voltage rating (V)"},
		{Key: "eta", Default: 0.7, Desc: "usable fraction of stored energy (converter efficiency)"},
	}
}

func (taskburstModel) Metrics() []MetricDoc {
	return []MetricDoc{
		{Key: "events", Unit: "count", Desc: "atomic tasks fired"},
		{Key: "rate", Unit: "1/s", Desc: "mean fire rate over the run"},
		{Key: "v_fire", Unit: "V", Desc: "derived eq. 4 fire threshold"},
		{Key: "v_floor", Unit: "V", Desc: "minimum useful operating voltage"},
		{Key: "first_fire", Unit: "s", Desc: "time of the first fire (absent when the node never fired)"},
		{Key: "energy_drawn", Unit: "J", Desc: "stored energy drawn by fired tasks (eta included)"},
	}
}

// taskburstMetrics extracts the structured objectives from one
// task-burst case. first_fire is omitted when the node never fired.
func taskburstMetrics(n *taskburst.Node, p registry.Params, duration float64) map[string]float64 {
	m := map[string]float64{
		"events":  float64(len(n.Events)),
		"rate":    n.Rate(0, duration),
		"v_fire":  n.VFire,
		"v_floor": n.VFloor,
	}
	// Validate pins eta to (0, 1], but the metrics contract is omit, not
	// trust: a zero eta must drop the key rather than store +Inf.
	if drawn := float64(len(n.Events)) * p["taskenergy"] / p["eta"]; !math.IsNaN(drawn) && !math.IsInf(drawn, 0) {
		m["energy_drawn"] = drawn
	}
	if len(n.Events) > 0 {
		m["first_fire"] = n.Events[0]
	}
	return m
}

// taskburstDefaultDt is the integration step when the spec leaves dt
// unset: charge curves evolve over milliseconds-to-seconds, so 100 µs
// resolves them without lab-engine step counts.
const taskburstDefaultDt = 1e-4

// Validate implements Model.
func (m taskburstModel) Validate(s *Spec) error {
	if err := s.rejectLabFields(); err != nil {
		return err
	}
	if s.Storage.C <= 0 {
		return s.errf("storage.c must be positive (got %g F)", float64(s.Storage.C))
	}
	p, err := s.modelParams(m)
	if err != nil {
		return s.errf("%w", err)
	}
	if p["taskenergy"] <= 0 {
		return s.errf("model param taskenergy must be positive (got %g J)", p["taskenergy"])
	}
	if p["eta"] <= 0 || p["eta"] > 1 {
		return s.errf("model param eta must be in (0, 1] (got %g)", p["eta"])
	}
	if p["vfloor"] < 0 || p["vmax"] <= p["vfloor"] {
		return s.errf("model params need 0 ≤ vfloor < vmax (got vfloor=%g, vmax=%g)", p["vfloor"], p["vmax"])
	}
	if v0 := float64(s.Storage.V0); v0 < 0 || v0 > p["vmax"] {
		return s.errf("storage.v0 must be within the capacitor rating [0, %g V] (got %g V)", p["vmax"], v0)
	}
	// The eq. 4 sizing must fit: building the node resolves the power
	// source and checks that the task energy fits in the capacitor
	// below its voltage rating.
	if _, err := m.node(s, p); err != nil {
		return err
	}
	return nil
}

// node sizes the task-burst node from the spec (the eq. 4 step).
func (taskburstModel) node(s *Spec, p registry.Params) (*taskburst.Node, error) {
	ps, err := s.buildPowerSource()
	if err != nil {
		return nil, err
	}
	task := taskburst.Task{Name: "task", EnergyJ: p["taskenergy"]}
	n, err := taskburst.NewNode(float64(s.Storage.C), task, ps, p["vfloor"], p["vmax"], p["eta"])
	if err != nil {
		return nil, s.errf("%w", err)
	}
	n.Cap.LeakR = float64(s.Storage.LeakR)
	n.Cap.V = float64(s.Storage.V0)
	return n, nil
}

func (taskburstModel) sweepHeader() []column {
	return columns(12, "events", "rate", "v-fire", "first-fire")
}

func (m taskburstModel) newRun(sp *Spec, rec *trace.Recorder) (modelRun, error) {
	p, err := sp.modelParams(m)
	if err != nil {
		return nil, sp.errf("%w", err)
	}
	n, err := m.node(sp, p)
	if err != nil {
		return nil, err
	}
	dt := float64(sp.Dt)
	if dt <= 0 {
		dt = taskburstDefaultDt
	}
	r := &taskburstRun{Sim: taskburst.NewSim(n, float64(sp.Duration), dt), sp: sp, p: p, n: n}
	if rec != nil {
		r.record(rec)
	}
	return r, nil
}

// taskburstRun is one sweep-free charge-and-fire case.
type taskburstRun struct {
	*taskburst.Sim
	sp *Spec
	p  registry.Params
	n  *taskburst.Node
}

func (r *taskburstRun) state() any { return r.State() }

func (r *taskburstRun) restore(sim []byte) error { return restoreJSON(sim, r.Restore) }

func (r *taskburstRun) record(rec *trace.Recorder) {
	vcapCh := rec.Channel("vcap", "V")
	eventsCh := rec.Channel("events", "")
	// The firing log is appended before Observe runs and is restored
	// with the run, so its length is the cumulative count on resume too.
	r.n.Observe = func(t, v float64, _ bool) {
		if !vcapCh.Due(t) {
			return
		}
		vcapCh.Record(t, v)
		eventsCh.Record(t, float64(len(r.n.Events)))
	}
}

func (r *taskburstRun) report() string {
	sp, p, n := r.sp, r.p, r.n
	need := p["taskenergy"] * 1.05 / p["eta"]
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "scenario %s: task-burst charge-fire on %s, C=%s, %gs\n",
		sp.Name, sp.Source.Name, units.Format(float64(sp.Storage.C), "F"), float64(sp.Duration))
	fmt.Fprintf(&buf, "  task:               %s per fire (eta %.0f%%, stored need %s)\n",
		units.Format(p["taskenergy"], "J"), p["eta"]*100, units.Format(need, "J"))
	fmt.Fprintf(&buf, "  thresholds:         fire at %.2fV, floor %.2fV (rated %.2fV)\n",
		n.VFire, n.VFloor, n.Cap.MaxV)
	fmt.Fprintf(&buf, "  events:             %d fired, mean rate %.3f/s\n",
		len(n.Events), n.Rate(0, float64(sp.Duration)))
	fmt.Fprintf(&buf, "  first fire:         %s (mean interval %s)\n",
		firstFireLabel(n), meanIntervalLabel(n, float64(sp.Duration)))
	fmt.Fprintf(&buf, "  task energy drawn:  %s\n",
		units.Format(float64(len(n.Events))*p["taskenergy"]/p["eta"], "J"))
	return buf.String()
}

func (r *taskburstRun) cells() []string {
	n := r.n
	return []string{
		fmt.Sprintf("%d", len(n.Events)),
		fmt.Sprintf("%.3f/s", n.Rate(0, float64(r.sp.Duration))),
		fmt.Sprintf("%.2fV", n.VFire),
		firstFireLabel(n),
	}
}

func (r *taskburstRun) outcome() ModelCase {
	return ModelCase{Metrics: taskburstMetrics(r.n, r.p, float64(r.sp.Duration))}
}

// firstFireLabel renders the first firing time ("never" when the node
// never accumulated a task's worth of energy).
func firstFireLabel(n *taskburst.Node) string {
	if len(n.Events) == 0 {
		return "never"
	}
	return units.FormatSeconds(n.Events[0])
}

// meanIntervalLabel renders the mean inter-fire interval.
func meanIntervalLabel(n *taskburst.Node, duration float64) string {
	if len(n.Events) == 0 {
		return "∞"
	}
	rate := n.Rate(0, duration)
	if rate <= 0 || math.IsInf(rate, 0) {
		return "∞"
	}
	return units.FormatSeconds(1 / rate)
}
