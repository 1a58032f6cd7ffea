package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// analyticModel is a closed-form scenario model — eneutral, taskburst,
// mpsoc. It supplies only what differs per model; analyticEngine owns
// the stepping, the checkpoint state and the trace rule they share, and
// tableSweepEngine runs every sweep case on that same engine.
type analyticModel interface {
	Model

	// newRun builds one sweep-free case from the spec.
	newRun(sp *Spec) (analyticRun, error)

	// sweepHeader titles the sweep table's columns, in cells() order.
	sweepHeader() []string
}

// analyticRun is one sweep-free case of an analytic model: its
// resumable simulation (Step/Done, from the model package's Sim) plus
// the model's checkpoint layout, trace channels and renderings.
type analyticRun interface {
	// Step advances up to maxSteps integration steps.
	Step(maxSteps int)
	// Done reports whether the run covered its duration.
	Done() bool

	// state returns the value the checkpoint stores under "sim".
	state() any
	// restore rewinds the run to a decoded state() value.
	restore(sim []byte) error
	// record wires the model's trace channels into rec; called after
	// any restore, so observers continue from the restored state.
	record(rec *trace.Recorder)

	// report renders the single-run report text (after Done).
	report() string
	// cells renders the case's sweep-table row (after Done).
	cells() []string
	// metrics returns the case's structured objectives (after Done).
	metrics() map[string]float64
}

// analyticEngineFor builds the engine for an analytic model's spec: a
// table sweep with sweep axes, a single analyticEngine without.
func analyticEngineFor(m analyticModel, sp *Spec, opts RunOptions, checkpoint []byte) (Engine, error) {
	if sp.HasSweep() {
		return newTableSweepEngine(m, sp, opts, checkpoint)
	}
	return newAnalyticEngine(m, sp, opts, checkpoint)
}

// analyticEngine steps one sweep-free analytic run in analyticChunk-sized
// slices of its integration loop.
type analyticEngine struct {
	sp   *Spec
	opts RunOptions
	run  analyticRun
	rec  *trace.Recorder
}

// analyticState is the serialised checkpoint of an analyticEngine. A
// missing (or null) Sim — an empty restart marker — resumes as a fresh
// run.
type analyticState struct {
	Sim   json.RawMessage `json:"sim,omitempty"`
	Trace []byte          `json:"trace,omitempty"`
}

// newAnalyticEngine builds the run, restoring its state and trace when
// checkpoint is non-nil.
func newAnalyticEngine(m analyticModel, sp *Spec, opts RunOptions, checkpoint []byte) (*analyticEngine, error) {
	run, err := m.newRun(sp)
	if err != nil {
		return nil, err
	}
	e := &analyticEngine{sp: sp, opts: opts, run: run}
	var st analyticState
	if checkpoint != nil {
		if err := json.Unmarshal(checkpoint, &st); err != nil {
			return nil, sp.errf("checkpoint: %w", err)
		}
	}
	if len(st.Sim) > 0 && string(st.Sim) != "null" {
		if err := run.restore(st.Sim); err != nil {
			return nil, sp.errf("checkpoint: %w", err)
		}
		// A resumed run records iff the checkpoint carried a trace — the
		// checkpoint, not the resume options, decides, so the reassembled
		// trace is byte-identical to an uninterrupted run's.
		if st.Trace != nil {
			if e.rec, err = trace.DecodeRecorder(st.Trace); err != nil {
				return nil, sp.errf("checkpoint trace: %w", err)
			}
		}
	} else if opts.Trace {
		e.rec = trace.NewRecorder()
		e.rec.SetInterval(opts.interval())
	}
	if e.rec != nil {
		run.record(e.rec)
	}
	return e, nil
}

// restoreJSON decodes a checkpoint's sim state and applies it.
func restoreJSON[S any](sim []byte, apply func(S)) error {
	var st S
	if err := json.Unmarshal(sim, &st); err != nil {
		return err
	}
	apply(st)
	return nil
}

// Step implements Engine.
func (e *analyticEngine) Step() error { e.run.Step(analyticChunk); return nil }

// Done implements Engine.
func (e *analyticEngine) Done() bool { return e.run.Done() }

// Checkpoint implements Engine.
func (e *analyticEngine) Checkpoint() ([]byte, error) {
	sim, err := json.Marshal(e.run.state())
	if err != nil {
		return nil, err
	}
	st := analyticState{Sim: sim}
	if e.rec != nil {
		st.Trace = trace.EncodeRecorder(e.rec)
	}
	return json.Marshal(st)
}

// Report implements Engine.
func (e *analyticEngine) Report() (*ModelReport, error) {
	if e.opts.Progress != nil {
		e.opts.Progress(1, 1)
	}
	return &ModelReport{
		Text:       e.run.report(),
		Cases:      []ModelCase{{Name: e.sp.Name, Metrics: e.run.metrics()}},
		SimSeconds: float64(e.sp.Duration),
		Trace:      e.rec,
	}, nil
}

// tableSweepEngine is the sweep engine for the analytic models: expand
// the grid, run the cases sequentially (the analytic engines are orders
// of magnitude cheaper than the lab's cycle-level stepping, so parallel
// fan-out would be all overhead) on an untraced analyticEngine, one
// analyticChunk per Step, and render a comparison table with the
// model's columns. Its checkpoint is the completed prefix — the cursor,
// the rendered cells, and the accumulated metrics; a case interrupted
// mid-run is dropped and, being deterministic, re-run on resume.
type tableSweepEngine struct {
	sp   *Spec
	opts RunOptions
	m    analyticModel

	cases      []sweep.Case
	next       int
	cur        *analyticEngine // the case in flight; nil between cases
	rows       [][]string
	names      []string
	mcases     []ModelCase
	simSeconds float64
}

// tableSweepState is the serialised checkpoint of a tableSweepEngine.
type tableSweepState struct {
	Next       int         `json:"next"`
	Rows       [][]string  `json:"rows"`
	Names      []string    `json:"names"`
	Cases      []ModelCase `json:"cases"`
	SimSeconds float64     `json:"simSeconds"`
}

// newTableSweepEngine builds the sweep engine, restoring the completed
// prefix when checkpoint is non-nil.
func newTableSweepEngine(m analyticModel, sp *Spec, opts RunOptions, checkpoint []byte) (*tableSweepEngine, error) {
	cases := sp.Grid().Cases()
	e := &tableSweepEngine{
		sp: sp, opts: opts, m: m,
		cases: cases,
		rows:  make([][]string, len(cases)),
		names: make([]string, len(cases)),
	}
	if checkpoint != nil {
		var st tableSweepState
		if err := json.Unmarshal(checkpoint, &st); err != nil {
			return nil, sp.errf("sweep checkpoint: %w", err)
		}
		if st.Next < 0 || st.Next > len(cases) ||
			len(st.Rows) != st.Next || len(st.Names) != st.Next || len(st.Cases) != st.Next {
			return nil, sp.errf("sweep checkpoint is inconsistent with the spec's %d cases", len(cases))
		}
		copy(e.rows, st.Rows)
		copy(e.names, st.Names)
		e.mcases = st.Cases
		e.next = st.Next
		e.simSeconds = st.SimSeconds
	}
	return e, nil
}

// Step implements Engine: advance the case in flight by one chunk,
// starting the next case first when none is.
func (e *tableSweepEngine) Step() error {
	c := e.cases[e.next]
	if e.cur == nil {
		cs, err := e.sp.At(c)
		if err != nil {
			return err
		}
		if e.cur, err = newAnalyticEngine(e.m, cs, RunOptions{}, nil); err != nil {
			return err
		}
	}
	if err := e.cur.Step(); err != nil {
		return err
	}
	if !e.cur.Done() {
		return nil
	}
	run := e.cur.run
	e.rows[e.next], e.names[e.next] = run.cells(), c.Name
	e.simSeconds += float64(e.cur.sp.Duration)
	e.mcases = append(e.mcases, ModelCase{Name: c.Name, Metrics: run.metrics()})
	e.cur = nil
	e.next++
	if e.opts.Progress != nil {
		e.opts.Progress(e.next, len(e.cases))
	}
	return nil
}

// Done implements Engine.
func (e *tableSweepEngine) Done() bool { return e.next >= len(e.cases) }

// Checkpoint implements Engine: serialise the completed prefix.
func (e *tableSweepEngine) Checkpoint() ([]byte, error) {
	return json.Marshal(tableSweepState{
		Next:       e.next,
		Rows:       e.rows[:e.next],
		Names:      e.names[:e.next],
		Cases:      e.mcases,
		SimSeconds: e.simSeconds,
	})
}

// Report implements Engine: render the comparison table.
func (e *tableSweepEngine) Report() (*ModelReport, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "scenario %s: sweep over %s, %d cases\n",
		e.sp.Name, SweepAxesLabel(e.sp), len(e.cases))
	writeCellTable(&buf, e.m.sweepHeader(), e.names, e.rows)
	return &ModelReport{
		Sweep:      true,
		Text:       buf.String(),
		Cases:      e.mcases,
		SimSeconds: e.simSeconds,
	}, nil
}

// writeCellTable renders a generic sweep table: a header row, then one
// row of pre-formatted cells per case.
func writeCellTable(w io.Writer, header, names []string, rows [][]string) {
	width := caseWidth(names)
	fmt.Fprintf(w, "%-*s", width, "case")
	for _, h := range header {
		fmt.Fprintf(w, " %-12s", h)
	}
	fmt.Fprintln(w)
	for i, cells := range rows {
		fmt.Fprintf(w, "%-*s", width, names[i])
		for _, c := range cells {
			fmt.Fprintf(w, " %-12s", c)
		}
		fmt.Fprintln(w)
	}
}
