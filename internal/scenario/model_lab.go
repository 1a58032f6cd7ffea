package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/powerneutral"
	"repro/internal/programs"
	"repro/internal/registry"
	"repro/internal/source"
	"repro/internal/trace"
	"repro/internal/transient"
	"repro/internal/units"
)

func init() { RegisterModel("lab", labModel{}) }

// labModel is the default scenario family: the cycle-accurate single-MCU
// lab engine (workload + device + transient runtime + optional DFS
// governor on a harvested rail) every pre-model spec ran on. Its report
// bytes are pinned by the golden corpus and by the byte-identity
// contract between `ehsim -scenario` and the ehsimd service.
type labModel struct{}

func (labModel) Desc() string {
	return "cycle-level MCU on a harvested rail (workload × runtime × supply)"
}

func (labModel) Params() []registry.ParamDoc { return nil }

func (labModel) Metrics() []MetricDoc {
	return []MetricDoc{
		{Key: "completions", Unit: "count", Desc: "correct workload iterations finished"},
		{Key: "wrong", Unit: "count", Desc: "iterations finishing with a wrong checksum"},
		{Key: "throughput", Unit: "ops/s", Desc: "completions per simulated second"},
		{Key: "energy_per_op", Unit: "J", Desc: "consumed joules per correct completion (absent when none completed)"},
		{Key: "first_completion", Unit: "s", Desc: "simulated time of the first completion (absent when none completed)"},
		{Key: "snapshots", Unit: "count", Desc: "state-save attempts started"},
		{Key: "restores", Unit: "count", Desc: "successful state restores"},
		{Key: "brownouts", Unit: "count", Desc: "supply brown-outs"},
		{Key: "harvested", Unit: "J", Desc: "energy harvested from the source"},
		{Key: "consumed", Unit: "J", Desc: "energy consumed by the node"},
		{Key: "tx_delivered", Unit: "count", Desc: "radio packets the peripheral bank delivered (absent without a bank)"},
		{Key: "tx_dropped", Unit: "count", Desc: "radio packets the unconfigured radio dropped (absent without a bank)"},
		{Key: "v_h", Unit: "V", Desc: "hibernate threshold V_H at the end of the run (absent unless the runtime is of the hibernus family)"},
		{Key: "v_r", Unit: "V", Desc: "restore threshold V_R at the end of the run (absent unless the runtime is of the hibernus family)"},
		{Key: "longest_on", Unit: "s", Desc: "longest uninterrupted stretch executing, saving or restoring"},
		{Key: "track_err", Unit: "ratio", Desc: "windowed eq. 3 error, mean |E_h − E_c| over mean E_h per 50 ms window (absent without a governor, under fast_forward, or before a window completes)"},
		{Key: "vcc_range", Unit: "V", Desc: "V_CC excursion, max − min over the run (absent without a governor or under fast_forward)"},
	}
}

// labMetrics extracts the lab engine's structured objectives from one
// case result and, for a governed run, its eq. (3) tracker (nil
// otherwise). Undefined values (energy/op and first-completion with
// zero completions, packet counts without a peripheral bank, thresholds
// without a hibernus-family runtime, tracking without a tracker) are
// omitted, per the ModelCase.Metrics contract. A valid supply near
// 1e200 V overflows the rail's energy sums, so a non-finite harvested,
// consumed or energy/op is omitted too, as is a tracking error before
// the first window closes.
func labMetrics(res lab.Result, duration float64, tr *powerneutral.Tracker) map[string]float64 {
	st := res.Stats
	m := map[string]float64{
		"completions": float64(res.Completions),
		"wrong":       float64(res.WrongResults),
		"throughput":  res.Throughput(duration),
		"snapshots":   float64(st.SavesStarted),
		"restores":    float64(st.Restores),
		"brownouts":   float64(st.BrownOuts),
		"longest_on":  st.LongestOnSec,
	}
	finite := func(key string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			m[key] = v
		}
	}
	finite("harvested", res.HarvestedJ)
	finite("consumed", res.ConsumedJ)
	if res.Completions > 0 {
		finite("energy_per_op", res.EnergyPerCompletion())
		m["first_completion"] = res.FirstCompletion
	}
	if res.Bank {
		m["tx_delivered"] = float64(res.TxDelivered)
		m["tx_dropped"] = float64(res.TxDropped)
	}
	if res.Hibernates {
		m["v_h"], m["v_r"] = res.VH, res.VR
	}
	if tr != nil {
		ts := tr.Stats()
		finite("track_err", ts.RelativeError())
		finite("vcc_range", ts.VRange())
	}
	return m
}

// Validate implements Model: the structural checks the lab engine needs
// — every name resolves, every param key is known, storage is sane.
func (labModel) Validate(s *Spec) error {
	if s.Workload == "" {
		return s.errf("workload is required")
	}
	if _, err := programs.Lookup(s.Workload); err != nil {
		return s.errf("%w", err)
	}
	switch s.Device.Profile {
	case "", "default", "unified-nv":
	default:
		return s.errf("device profile %q (valid: default, unified-nv)", s.Device.Profile)
	}
	// Both profiles share one DFS table; mcu.New would silently run an
	// out-of-range level at the top frequency.
	if fi := s.Device.FreqIndex; fi != nil {
		if n := len(mcu.DefaultParams().FreqLevels); *fi < 0 || *fi >= n {
			return s.errf("device.freqindex %d is out of range (DFS levels 0–%d)", *fi, n-1)
		}
	}
	if s.Source.Name == "" {
		return s.errf("source.name is required")
	}
	if _, err := source.Build(s.Source.Name, toParams(s.Source.Params)); err != nil {
		return s.errf("%w", err)
	}
	if _, _, err := transient.RuntimeFactory(s.runtimeName(), 1e-6, toParams(s.Runtime.Params)); err != nil {
		return s.errf("%w", err)
	}
	if s.Governor != nil {
		if _, err := powerneutral.BuildGovernor(s.Governor.Policy, toParams(s.Governor.Params)); err != nil {
			return s.errf("%w", err)
		}
	}
	if s.Storage.C <= 0 {
		return s.errf("storage.c must be positive (got %g F)", float64(s.Storage.C))
	}
	if _, err := s.modelParams(labModel{}); err != nil {
		return s.errf("%w", err)
	}
	return nil
}

// sweepHeader implements Model. The packet columns print only when a
// case drove a peripheral bank, since only such a case's row has them.
func (labModel) sweepHeader() []column {
	return []column{
		{"completions", 12}, {"wrong", 8}, {"snapshots", 10}, {"brownouts", 10},
		{"energy/op", 12}, {"harvested", 12}, {"delivered", 10}, {"dropped", 10},
	}
}

// labRun is one sweep-free cycle-level lab experiment. Its MCU state is
// not serialised, so it checkpoints as a restart marker — trading the
// partial work for the guarantee that the resumed run is byte-identical
// to an uninterrupted one.
type labRun struct {
	*lab.Sim
	sp *Spec
	tr *powerneutral.Tracker // a governed run's eq. (3) tracker, else nil
}

func (labModel) newRun(sp *Spec, rec *trace.Recorder) (modelRun, error) {
	s, tr, err := sp.compile()
	if err != nil {
		return nil, err
	}
	s.Recorder = rec
	sim, err := lab.Start(s)
	if err != nil {
		return nil, err
	}
	return &labRun{Sim: sim, sp: sp, tr: tr}, nil
}

func (r *labRun) state() any { return nil }

func (r *labRun) restore([]byte) error {
	return errors.New("a lab run restarts from zero; its checkpoint carries no state")
}

func (r *labRun) report() string {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, SingleTitle(r.sp))
	writeSummary(&buf, r.Result(), float64(r.sp.Duration))
	return buf.String()
}

func (r *labRun) outcome() ModelCase {
	res := r.Result()
	return ModelCase{Result: res, Metrics: labMetrics(res, float64(r.sp.Duration), r.tr)}
}

func (r *labRun) cells() []string {
	res := r.Result()
	eop := "∞"
	if res.Completions > 0 {
		eop = units.Format(res.EnergyPerCompletion(), "J")
	}
	st := res.Stats
	cells := []string{
		strconv.Itoa(res.Completions), strconv.Itoa(res.WrongResults),
		strconv.Itoa(st.SavesStarted), strconv.Itoa(st.BrownOuts),
		eop, units.Format(res.HarvestedJ, "J"),
	}
	if res.Bank {
		cells = append(cells, strconv.Itoa(res.TxDelivered), strconv.Itoa(res.TxDropped))
	}
	return cells
}
