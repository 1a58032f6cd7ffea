package scenario

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/circuit"
	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/powerneutral"
	"repro/internal/programs"
	"repro/internal/source"
	"repro/internal/sweep"
	"repro/internal/transient"
	"repro/internal/units"
)

// Setup compiles the spec (ignoring any sweep axes) into a runnable
// lab.Setup. Each call builds fresh source, runtime-factory, and
// governor state, so the returned Setup is safe to run once; call Setup
// again for another run.
func (s *Spec) Setup() (lab.Setup, error) {
	st, _, err := s.compile()
	return st, err
}

// compile is Setup plus the eq. (3) tracker a governed run's OnTick
// feeds after each governor action, over each step. It is nil without a
// governor, and under fast-forward, where OnTick sees hop boundaries only.
func (s *Spec) compile() (lab.Setup, *powerneutral.Tracker, error) {
	if err := s.Validate(); err != nil {
		return lab.Setup{}, nil, err
	}
	if s.ModelName() != "lab" {
		return lab.Setup{}, nil, s.errf("Setup compiles lab-model specs only (this spec uses model %q)", s.ModelName())
	}
	mk, layout, params, err := s.device()
	if err != nil {
		return lab.Setup{}, nil, err
	}
	w, err := programs.Build(s.Workload, layout)
	if err != nil {
		return lab.Setup{}, nil, s.errf("%w", err)
	}
	built, err := source.Build(s.Source.Name, toParams(s.Source.Params))
	if err != nil {
		return lab.Setup{}, nil, s.errf("%w", err)
	}

	st := lab.Setup{
		Workload:    w,
		Params:      params,
		MakeRuntime: mk,
		VSource:     built.V,
		PSource:     built.P,
		C:           float64(s.Storage.C),
		V0:          float64(s.Storage.V0),
		LeakR:       float64(s.Storage.LeakR),
		Dt:          float64(s.Dt),
		Duration:    float64(s.Duration),
		FastForward: s.FastForward,
	}
	if s.Governor == nil {
		return st, nil, nil
	}
	gov, err := powerneutral.BuildGovernor(s.Governor.Policy, toParams(s.Governor.Params))
	if err != nil {
		return lab.Setup{}, nil, s.errf("%w", err)
	}
	var tr *powerneutral.Tracker
	if !s.FastForward {
		tr = powerneutral.NewTracker()
	}
	dt := st.Dt
	if dt <= 0 {
		dt = lab.DefaultDt
	}
	st.OnTick = func(t float64, d *mcu.Device, rail *circuit.Rail) {
		gov.Act(t, d, rail.V())
		if tr != nil {
			tr.Observe(rail, rail.V(), dt)
		}
	}
	return st, tr, nil
}

// device resolves the runtime factory, memory layout and device params
// the spec compiles to: the profile, else the runtime, picks the memory
// system, and device.freqindex the DFS level.
func (s *Spec) device() (func(*mcu.Device) mcu.Runtime, programs.Layout, mcu.Params, error) {
	mk, entry, err := transient.RuntimeFactory(s.runtimeName(), float64(s.Storage.C), toParams(s.Runtime.Params))
	if err != nil {
		return nil, programs.Layout{}, mcu.Params{}, s.errf("%w", err)
	}
	unified := entry.UnifiedNV
	switch s.Device.Profile {
	case "default":
		unified = false
	case "unified-nv":
		unified = true
	}
	layout, params := programs.DefaultLayout(), mcu.DefaultParams()
	if unified {
		layout, params = programs.UnifiedNVLayout(), mcu.UnifiedNVParams()
	}
	if s.Device.FreqIndex != nil {
		params.FreqIndex = *s.Device.FreqIndex
	}
	return mk, layout, params, nil
}

// Eq5Crossover evaluates eq. (5) at rail voltage v between the devices
// a split-SRAM hibernus spec and a unified-FRAM QuickRecall spec compile
// to: active powers and per-outage energies (a full snapshot and restore
// against a registers-only one) come from their mcu.Params alone, so no
// device is built.
func Eq5Crossover(split, unified *Spec, v float64) (float64, error) {
	_, _, ps, err := split.device()
	if err != nil {
		return 0, err
	}
	_, _, pu, err := unified.device()
	if err != nil {
		return 0, err
	}
	return transient.CrossoverFrequency(pu.ActivePower(v), ps.ActivePower(v),
		ps.OutageEnergy(v, mcu.SnapFull), pu.OutageEnergy(v, mcu.SnapRegs)), nil
}

// Grid expands the spec's sweep axes into a sweep.Grid, axes in
// declaration order (first axis slowest, matching the engine's row-major
// contract). Numeric axes get SI-formatted labels where the param is a
// known electrical quantity.
func (s *Spec) Grid() *sweep.Grid {
	g := sweep.NewGrid()
	for _, ax := range s.Sweep {
		if len(ax.Names) > 0 {
			vals := make([]any, len(ax.Names))
			for i, n := range ax.Names {
				vals[i] = n
			}
			g.Axis(ax.Param, vals...)
			continue
		}
		vals := make([]float64, len(ax.Values))
		labels := make([]string, len(ax.Values))
		for i, v := range ax.Values {
			vals[i] = float64(v)
			labels[i] = AxisLabel(ax.Param, float64(v))
		}
		g.Floats(ax.Param, vals...)
		g.Labels(labels...)
	}
	return g
}

// AxisLabel renders one axis point for case names and tables — exported
// so explorers labelling machine-generated grids match sweep-table
// spelling exactly.
func AxisLabel(param string, v float64) string {
	switch param {
	case "c", "storage.c":
		return units.Format(v, "F")
	case "leakr", "storage.leakr":
		return units.Format(v, "Ω")
	default:
		return fmt.Sprintf("%g", v)
	}
}

// SetupAt compiles the spec with the case's sweep coordinates applied —
// the per-case half of a grid run:
//
//	grid := sp.Grid()
//	results, err := sweep.MapCases(r, grid.Cases(), func(c sweep.Case) (lab.Result, error) {
//	    st, err := sp.SetupAt(c)
//	    ...
//	})
func (s *Spec) SetupAt(c sweep.Case) (lab.Setup, error) {
	cs, err := s.At(c)
	if err != nil {
		return lab.Setup{}, err
	}
	return cs.Setup()
}

// Apply sets one swept parameter on the spec. Accepted params:
//
//	float-valued: c, v0, leakr (also storage.c, …), duration, dt,
//	              freqindex, source.<key>, runtime.<key>, governor.<key>,
//	              model.<key> (top-level model params)
//	name-valued:  workload, source, runtime, governor
func (s *Spec) Apply(param string, value any) error {
	if name, ok := value.(string); ok {
		switch param {
		case "workload":
			s.Workload = name
		case "source":
			s.Source.Name = name
		case "runtime":
			s.Runtime.Name = name
		case "governor":
			if s.Governor == nil {
				s.Governor = &GovernorSpec{}
			}
			s.Governor.Policy = name
		default:
			return fmt.Errorf("axis %q does not take names (name axes: workload, source, runtime, governor)", param)
		}
		return nil
	}
	f, ok := value.(float64)
	if !ok {
		return fmt.Errorf("axis %q: unsupported value type %T", param, value)
	}
	switch param {
	case "c", "storage.c":
		s.Storage.C = Value(f)
	case "v0", "storage.v0":
		s.Storage.V0 = Value(f)
	case "leakr", "storage.leakr":
		s.Storage.LeakR = Value(f)
	case "duration":
		s.Duration = Value(f)
	case "dt":
		s.Dt = Value(f)
	case "freqindex":
		// Truncating 3.5 would run level 3 under a "freqindex=3.5" label
		// and a hash of its own; the range check is the model's.
		if f != math.Trunc(f) || math.Abs(f) > math.MaxInt32 {
			return fmt.Errorf("freqindex %g is not an integer DFS level", f)
		}
		fi := int(f)
		s.Device.FreqIndex = &fi
	default:
		group, key, found := strings.Cut(param, ".")
		if !found {
			return fmt.Errorf("unknown sweep param %q (valid: c, v0, leakr, duration, dt, freqindex, or a model./source./runtime./governor. key)", param)
		}
		switch group {
		case "model":
			s.Params = setParam(s.Params, key, f)
		case "source":
			s.Source.Params = setParam(s.Source.Params, key, f)
		case "runtime":
			s.Runtime.Params = setParam(s.Runtime.Params, key, f)
		case "governor":
			if s.Governor == nil {
				return fmt.Errorf("sweep param %q needs a governor block", param)
			}
			s.Governor.Params = setParam(s.Governor.Params, key, f)
		default:
			return fmt.Errorf("unknown sweep param %q (valid: model.*, source.*, runtime.*, governor.*)", param)
		}
	}
	return nil
}

// setParam writes into a possibly-nil param map.
func setParam(m map[string]Value, key string, v float64) map[string]Value {
	if m == nil {
		m = make(map[string]Value, 1)
	}
	m[key] = Value(v)
	return m
}
