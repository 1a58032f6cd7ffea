// Scenario models: the dispatch layer that lets one declarative Spec
// surface drive heterogeneous simulation engines. The paper's Fig. 2
// taxonomy spans three system classes beyond the single-MCU lab engine —
// energy-neutral duty cycling (§II.A), charge-and-fire task-based
// transients (§II.B), and power-neutral MPSoCs (§II.C) — and each class
// is a Model registered here under a stable name. Spec.Model selects
// one ("" means "lab", preserving every pre-model spec and its content
// hash byte-for-byte); every front-end that executes specs through
// RunModel gains all registered models with no per-model plumbing.
//
// The model contract (docs/ARCHITECTURE.md "The model registry"):
//
//   - deterministic: a model's Run output depends only on the spec —
//     no wall clock, no unseeded randomness — because reports are
//     content-addressed by Spec.Hash() and golden-pinned;
//   - the model name folds into the canonical JSON (and so the hash)
//     exactly when set, so "model":"lab" and an absent model field are
//     distinct cache keys even though they run identically;
//   - Validate must resolve every name and reject every spec field the
//     model does not consume, so a typo fails loudly at parse time;
//   - newRun builds one sweep-free case as a resumable stepper, and
//     sweepHeader titles its sweep-table row. The driver
//     (RunModel/ResumeModel in engine.go) runs every model on the same
//     two engines — a single run, or a sweep of such runs — and owns
//     the control flow: progress, the trace (single runs),
//     cancellation (sweep.ErrCanceled), checkpoints
//     (*CheckpointError), and the guarantee that a resumed run is
//     byte-identical to an uninterrupted one.
package scenario

import (
	"strings"

	"repro/internal/lab"
	"repro/internal/registry"
	"repro/internal/source"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// DefaultTraceInterval is the default sampling interval (simulated
// seconds) for captured traces, matching the CLI's -trace behaviour.
const DefaultTraceInterval = 1e-3

// RunOptions tunes one RunModel or ResumeModel execution.
type RunOptions struct {
	// Workers is the sweep parallelism (0 = one per core): a sweep runs
	// its cases, of any model, in waves of Workers at a time. It never
	// reaches the report.
	Workers int

	// Trace asks a single run to capture itself as a trace.Recorder; a
	// sweep, of any model, records none (to trace one of its cases, run
	// that case as a single spec: Spec.At). Recording does not perturb
	// the simulation: the recorder is a pure observer. What the trace
	// carries is model-defined: V_CC/freq/mode for lab runs,
	// budget/used/fps for mpsoc, vcap/events for taskburst,
	// soc/duty/harvest for eneutral.
	Trace bool

	// TraceInterval overrides the trace sampling interval (simulated
	// seconds); ≤0 selects DefaultTraceInterval. Callers bounding trace
	// memory for long runs raise it (service.maxTraceSamples).
	TraceInterval float64

	// Progress, if non-nil, is called after each case completes; single
	// runs report (1, 1).
	Progress func(done, total int)

	// Cancel, if non-nil, aborts the run when closed: the driver
	// returns sweep.ErrCanceled. It stops new sweep cases from starting
	// and interrupts the stepping loop of cases already running, so even
	// long single runs cancel promptly.
	Cancel <-chan struct{}

	// Checkpoint, if non-nil, suspends the run when closed: the driver
	// captures the engine's state and returns *CheckpointError carrying
	// a ResumeModel-ready envelope. Cancel wins when both have fired.
	Checkpoint <-chan struct{}
}

// interval resolves the effective trace sampling interval.
func (o RunOptions) interval() float64 {
	if o.TraceInterval > 0 {
		return o.TraceInterval
	}
	return DefaultTraceInterval
}

// ModelCase is one executed case of a model run.
type ModelCase struct {
	Name string
	// Result holds the structured result for lab-model cases; other
	// models report through their rendered text and leave it zero.
	// Neither a sweep checkpoint nor the report codec persists it (every
	// number worth keeping is in Metrics), so a resumed sweep's restored
	// cases and a decoded report's cases carry it zero.
	Result lab.Result `json:"-"`

	// Metrics holds the case's structured objectives — every number the
	// rendered report derives its cells from, keyed by the names the
	// model documents in Metrics(). All four models fill it, so the
	// design-space explorer (internal/explore) can optimise any model
	// without parsing report text. Keys whose value is undefined for the
	// case (energy_per_op with zero completions, first_fire when the
	// node never fired) are absent rather than NaN/Inf, so the map is
	// always JSON-encodable.
	Metrics map[string]float64
}

// MetricDoc documents one structured objective a model reports per case:
// its key in ModelCase.Metrics, its unit, and a one-line description.
// Discovery surfaces (ehsim -list, /v1/registry) render these so an
// exploration spec can be written against documented names.
type MetricDoc struct {
	Key  string
	Unit string
	Desc string
}

// ModelReport is one model execution's complete outcome, rendered and
// structured. internal/result encodes it for the daemon's caches
// (EncodeReport) and renders its trace as CSV (WriteTrace).
type ModelReport struct {
	// SpecHash is the executed spec's content address (Spec.Hash): the
	// spec handed to RunModel or ResumeModel, so a sweep's report carries
	// the sweep spec's hash, not a case's.
	SpecHash string

	// Sweep reports whether the spec expanded into a grid.
	Sweep bool

	// Text is the canonical rendering — byte-identical to what
	// `ehsim -scenario` prints on stdout for the same spec.
	Text string

	// Cases holds the per-case outcomes in grid order (one entry for a
	// single run).
	Cases []ModelCase

	// SimSeconds is the total simulated time across all cases.
	SimSeconds float64

	// Trace is the captured recorder (RunOptions.Trace, single runs
	// only) as its columnar store; nil otherwise. result.WriteTrace
	// renders it as CSV under a spec-hash header, and windowed queries
	// run against it (trace.Window).
	Trace *trace.Recorder
}

// Model is one pluggable scenario family. Implementations are
// registered with RegisterModel and resolved by Spec.Model.
type Model interface {
	// Desc is the one-line description for discovery output.
	Desc() string

	// Params documents the model-level tunables (Spec.Params). An empty
	// slice means the model takes none.
	Params() []registry.ParamDoc

	// Metrics documents the structured objectives the model fills into
	// every ModelCase.Metrics — the contract exploration specs are
	// written against. Keys marked "absent when undefined" in their
	// Desc may be missing from a given case's map.
	Metrics() []MetricDoc

	// Validate checks the model-specific spec constraints: names
	// resolve, required fields are present, fields the model does not
	// consume are absent. The common checks (duration, dt, sweep
	// bounds) run before dispatch in Spec.Validate.
	Validate(sp *Spec) error

	// newRun builds one sweep-free case from the spec, recording into
	// rec when it is non-nil.
	newRun(sp *Spec, rec *trace.Recorder) (modelRun, error)

	// sweepHeader titles the sweep table's columns, in cells() order.
	sweepHeader() []column
}

var models = registry.New[Model]("model")

// RegisterModel adds a model under name (panics on duplicates).
func RegisterModel(name string, m Model) { models.Register(name, m) }

// ModelNames returns every registered model name, sorted.
func ModelNames() []string { return models.Names() }

// LookupModel resolves name, or returns an error listing the known
// models.
func LookupModel(name string) (Model, error) { return models.Get(name) }

// ModelName returns the effective model name ("" selects "lab").
func (s *Spec) ModelName() string {
	if s.Model == "" {
		return "lab"
	}
	return s.Model
}

// modelParams resolves the spec's top-level params against the model's
// docs: defaults filled in, unknown keys rejected.
func (s *Spec) modelParams(m Model) (registry.Params, error) {
	return registry.Resolve("model", s.ModelName(), m.Params(), toParams(s.Params))
}

// canceled reports whether the cancel channel is closed.
func canceled(cancel <-chan struct{}) bool {
	if cancel == nil {
		return false
	}
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// rejectLabFields errors when the spec sets any of the lab-engine
// blocks a non-lab model does not consume. Listing them individually
// keeps the message actionable.
func (s *Spec) rejectLabFields() error {
	model := s.ModelName()
	if s.Workload != "" {
		return s.errf("model %q takes no workload (remove the workload field)", model)
	}
	if s.Device.FreqIndex != nil || s.Device.Profile != "" {
		return s.errf("model %q takes no device block", model)
	}
	if s.Runtime.Name != "" || len(s.Runtime.Params) > 0 {
		return s.errf("model %q takes no runtime block", model)
	}
	if s.Governor != nil {
		return s.errf("model %q takes no governor block", model)
	}
	return nil
}

// rejectStorage errors when the spec sets a storage block a model does
// not consume (models that size storage through their params).
func (s *Spec) rejectStorage() error {
	if s.Storage != (StorageSpec{}) {
		return s.errf("model %q takes no storage block (size storage through params)", s.ModelName())
	}
	return nil
}

// buildPowerSource resolves the spec's source and requires a power-kind
// entry (an available-power waveform P(t)) — the budget the analytic
// models consume. Voltage-kind sources are rejected with the list of
// power sources, so the fix is one error message away.
func (s *Spec) buildPowerSource() (source.PowerSource, error) {
	if s.Source.Name == "" {
		return nil, s.errf("source.name is required")
	}
	e, err := source.Lookup(s.Source.Name)
	if err != nil {
		return nil, s.errf("%w", err)
	}
	if !e.Power {
		var powered []string
		for _, n := range source.Names() {
			if pe, _ := source.Lookup(n); pe.Power {
				powered = append(powered, n)
			}
		}
		return nil, s.errf("model %q needs a power source, but %q supplies a voltage waveform (power sources: %s)",
			s.ModelName(), s.Source.Name, strings.Join(powered, ", "))
	}
	b, err := source.Build(s.Source.Name, toParams(s.Source.Params))
	if err != nil {
		return nil, s.errf("%w", err)
	}
	return b.P, nil
}

// At returns a sweep-free copy of the spec with the case's coordinates
// applied — the expansion step behind SetupAt, the sweep engine and
// callers (internal/explore) that stream Grid().CaseAt(i) cases
// themselves.
func (s *Spec) At(c sweep.Case) (*Spec, error) {
	cs := s.Clone()
	cs.Sweep = nil
	for _, ax := range s.Sweep {
		v, ok := c.Values[ax.Param]
		if !ok {
			return nil, s.errf("case %q carries no value for axis %q", c.Name, ax.Param)
		}
		if err := cs.Apply(ax.Param, v); err != nil {
			return nil, s.errf("case %q: %w", c.Name, err)
		}
	}
	return cs, nil
}
