// Package result is the shared result-encoding path between the ehsim
// CLI and the ehsimd service: one implementation of "execute a scenario
// spec and render its report", so the two front-ends cannot drift. The
// byte-identity contract — `GET /v1/jobs/{id}/result` returns exactly
// what `ehsim -scenario` prints for the same spec — holds because both
// call RunSpec and serve Report.Text verbatim.
//
// Execution itself lives behind the scenario model registry
// (internal/scenario's Model interface): RunSpec resolves the spec's
// model — lab, mpsoc, taskburst, eneutral — runs it, and wraps the
// rendered report with the spec's content address. Every front-end that
// goes through RunSpec gains new models the moment they register.
//
// The package also owns the trace serialisation that stamps every CSV
// with the spec's content address (WriteTrace).
package result

import (
	"fmt"
	"io"

	"repro/internal/lab"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// EngineVersion names the simulation-and-rendering contract a cached
// report was produced under. The service mixes it into cache keys, so
// bump it whenever lab semantics, registry defaults, model behaviour,
// or report text change in a way that should invalidate previously
// computed results.
const EngineVersion = "2"

// TraceInterval is the sampling interval (simulated seconds) used for
// captured traces, matching the CLI's -trace behaviour.
const TraceInterval = scenario.DefaultTraceInterval

// Options tunes one RunSpec execution.
type Options struct {
	// Workers is the sweep parallelism (0 = one per core).
	Workers int

	// Trace captures a trace of a single-run spec; a sweep, of any
	// model, records none (to trace one of its cases, run that case as
	// a single spec: Spec.At). Recording does not perturb the
	// simulation — the recorder is a pure observer. What
	// the trace carries is model-defined: V_CC/freq/mode for lab runs,
	// budget/used/fps for mpsoc, vcap/events for taskburst,
	// soc/duty/harvest for eneutral.
	Trace bool

	// TraceInterval overrides the trace sampling interval (simulated
	// seconds); ≤0 selects the TraceInterval default. Callers bounding
	// trace memory for long runs raise it (service.maxTraceSamples).
	TraceInterval float64

	// Progress, if non-nil, is called after each case completes; single
	// runs report (1, 1).
	Progress func(done, total int)

	// Cancel, if non-nil, aborts the run when closed: RunSpec returns
	// sweep.ErrCanceled. It stops new sweep cases from starting and
	// interrupts the stepping loop of cases already running, so even
	// long single runs cancel promptly.
	Cancel <-chan struct{}

	// Checkpoint, if non-nil, suspends the run when closed: RunSpec
	// returns *scenario.CheckpointError carrying a resumable state
	// envelope for ResumeSpec. Cancel wins when both have fired.
	Checkpoint <-chan struct{}
}

// CaseResult pairs one executed case with its name. Result carries the
// structured lab metrics for lab-model cases and is zero for the
// analytic models. Metrics carries the model's structured objectives
// (scenario.ModelCase.Metrics) for every model — the values the
// design-space explorer optimises, persisted through the cache codec
// so a disk- or peer-served report still answers objective queries.
type CaseResult struct {
	Name    string
	Result  lab.Result
	Metrics map[string]float64
}

// Report is one scenario execution's complete outcome.
type Report struct {
	// SpecHash is the executed spec's content address (scenario.Hash).
	SpecHash string

	// Sweep reports whether the spec expanded into a grid.
	Sweep bool

	// Text is the canonical rendering — byte-identical to what
	// `ehsim -scenario` prints on stdout for the same spec.
	Text string

	// Cases holds the structured per-case results, in grid order (one
	// entry for a single run).
	Cases []CaseResult

	// SimSeconds is the total simulated time across all cases — the
	// service's work-done metric.
	SimSeconds float64

	// Trace is the captured trace (Options.Trace, single runs) as its
	// columnar store; nil when the run captured no trace. The CSV is rendered from it on demand by
	// WriteTrace, and windowed queries run against it (trace.Window).
	Trace *trace.Recorder
}

// runOptions maps the package's options onto the scenario driver's.
func runOptions(opts Options) scenario.RunOptions {
	return scenario.RunOptions{
		Workers:       opts.Workers,
		Trace:         opts.Trace,
		TraceInterval: opts.TraceInterval,
		Progress:      opts.Progress,
		Cancel:        opts.Cancel,
		Checkpoint:    opts.Checkpoint,
	}
}

// RunSpec executes a validated spec — a single run without sweep axes, a
// parallel grid sweep with them — through its scenario model's engine
// and renders its report.
func RunSpec(sp *scenario.Spec, opts Options) (*Report, error) {
	hash, err := sp.Hash()
	if err != nil {
		return nil, err
	}
	mr, err := scenario.RunModel(sp, runOptions(opts))
	if err != nil {
		return nil, err
	}
	return wrapReport(hash, mr), nil
}

// ResumeSpec continues a run suspended by a checkpoint request: state is
// the envelope a previous RunSpec/ResumeSpec returned inside
// *scenario.CheckpointError. The finished report is byte-identical to an
// uninterrupted RunSpec of the same spec.
func ResumeSpec(sp *scenario.Spec, state []byte, opts Options) (*Report, error) {
	hash, err := sp.Hash()
	if err != nil {
		return nil, err
	}
	mr, err := scenario.ResumeModel(sp, state, runOptions(opts))
	if err != nil {
		return nil, err
	}
	return wrapReport(hash, mr), nil
}

// wrapReport stamps a model report with the spec's content address.
func wrapReport(hash string, mr *scenario.ModelReport) *Report {
	rep := &Report{
		SpecHash:   hash,
		Sweep:      mr.Sweep,
		Text:       mr.Text,
		SimSeconds: mr.SimSeconds,
		Cases:      make([]CaseResult, len(mr.Cases)),
		Trace:      mr.Trace,
	}
	for i, c := range mr.Cases {
		rep.Cases[i] = CaseResult{Name: c.Name, Result: c.Lab, Metrics: c.Metrics}
	}
	return rep
}

// WriteTrace serialises a recorded trace as CSV, prefixed (when specHash
// is non-empty) with a header comment carrying the spec's content
// address — so a trace file on disk is traceable back to the exact spec
// that produced it. The CSV is a pure function of the recorder, so every
// front-end that renders the same trace (the CLI's -trace file, the
// daemon's /trace, whichever tier served the report) writes the same
// bytes.
func WriteTrace(w io.Writer, rec *trace.Recorder, specHash string) error {
	if specHash != "" {
		if _, err := fmt.Fprintf(w, "# spec-hash: %s\n", specHash); err != nil {
			return err
		}
	}
	return rec.WriteCSV(w)
}
