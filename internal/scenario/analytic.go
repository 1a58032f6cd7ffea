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
// mpsoc. It supplies only what differs per model; singleEngine owns
// the stepping, the checkpoint state and the trace rule they share, and
// tableSweepEngine runs every sweep case on that same stepping.
type analyticModel interface {
	Model

	// newRun builds one sweep-free case from the spec, recording into
	// rec when it is non-nil.
	newRun(sp *Spec, rec *trace.Recorder) (analyticRun, error)

	// sweepHeader titles the sweep table's columns, in cells() order.
	sweepHeader() []string
}

// modelRun is one sweep-free case of any model: its resumable
// simulation (Step/Done, from the model package's Sim) plus the model's
// checkpoint layout and renderings. Its constructor wires the trace
// channels, before any restore, so observers continue from the
// restored state.
type modelRun interface {
	// Step advances up to maxSteps integration steps.
	Step(maxSteps int)
	// Done reports whether the run covered its duration.
	Done() bool

	// state returns the value the checkpoint stores under "sim"; nil
	// marks a run whose state is not serialised (the lab's cycle-level
	// MCU), which checkpoints as a restart marker.
	state() any
	// restore rewinds the run to a decoded state() value.
	restore(sim []byte) error

	// report renders the single-run report text (after Done).
	report() string
	// outcome returns the case's structured results, unnamed (after
	// Done).
	outcome() ModelCase
}

// analyticRun is a modelRun that can also render a sweep-table row.
type analyticRun interface {
	modelRun
	// cells renders the case's sweep-table row (after Done).
	cells() []string
}

// analyticEngineFor builds the engine for an analytic model's spec: a
// table sweep with sweep axes, a single singleEngine without.
func analyticEngineFor(m analyticModel, sp *Spec, opts RunOptions, checkpoint []byte) (Engine, error) {
	if sp.HasSweep() {
		return newTableSweepEngine(m, sp, opts, checkpoint)
	}
	return newSingleEngine(sp, opts, checkpoint, func(sp *Spec, rec *trace.Recorder) (modelRun, error) {
		return m.newRun(sp, rec)
	})
}

// singleEngine steps one sweep-free run of any model in stepChunk-sized
// slices of its integration loop.
type singleEngine struct {
	sp   *Spec
	opts RunOptions
	run  modelRun
	rec  *trace.Recorder
}

// singleState is the serialised checkpoint of a singleEngine. A missing
// (or null) Sim — an empty restart marker — resumes as a fresh run.
type singleState struct {
	Sim   json.RawMessage `json:"sim,omitempty"`
	Trace []byte          `json:"trace,omitempty"`
}

// newSingleEngine builds the run with newRun, restoring its state and
// trace when checkpoint is non-nil.
func newSingleEngine(sp *Spec, opts RunOptions, checkpoint []byte, newRun func(*Spec, *trace.Recorder) (modelRun, error)) (*singleEngine, error) {
	var st singleState
	if checkpoint != nil {
		if err := json.Unmarshal(checkpoint, &st); err != nil {
			return nil, sp.errf("checkpoint: %w", err)
		}
	}
	resume := len(st.Sim) > 0 && string(st.Sim) != "null"
	e := &singleEngine{sp: sp, opts: opts}
	var err error
	if resume {
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
	if e.run, err = newRun(sp, e.rec); err != nil {
		return nil, err
	}
	if resume {
		if err := e.run.restore(st.Sim); err != nil {
			return nil, sp.errf("checkpoint: %w", err)
		}
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
func (e *singleEngine) Step() error { e.run.Step(stepChunk); return nil }

// Done implements Engine.
func (e *singleEngine) Done() bool { return e.run.Done() }

// Checkpoint implements Engine. A run without serialised state
// checkpoints as an empty restart marker, without its partial trace:
// the resumed run starts over and is still byte-identical.
func (e *singleEngine) Checkpoint() ([]byte, error) {
	var st singleState
	if s := e.run.state(); s != nil {
		sim, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		st.Sim = sim
		if e.rec != nil {
			st.Trace = trace.EncodeRecorder(e.rec)
		}
	}
	return json.Marshal(st)
}

// Report implements Engine.
func (e *singleEngine) Report() (*ModelReport, error) {
	if e.opts.Progress != nil {
		e.opts.Progress(1, 1)
	}
	mc := e.run.outcome()
	mc.Name = e.sp.Name
	return &ModelReport{
		Text:       e.run.report(),
		Cases:      []ModelCase{mc},
		SimSeconds: float64(e.sp.Duration),
		Trace:      e.rec,
	}, nil
}

// tableSweepEngine is the sweep engine for the analytic models: expand
// the grid, run the cases sequentially (the analytic engines are orders
// of magnitude cheaper than the lab's cycle-level stepping, so parallel
// fan-out would be all overhead) as untraced runs, one stepChunk per
// Step, and render a comparison table with the
// model's columns. Its checkpoint is the completed prefix — the cursor,
// the rendered cells, and the accumulated metrics; a case interrupted
// mid-run is dropped and, being deterministic, re-run on resume.
type tableSweepEngine struct {
	sp   *Spec
	opts RunOptions
	m    analyticModel

	cases      []sweep.Case
	next       int
	cur        analyticRun // the case in flight; nil between cases
	curSeconds float64     // its simulated duration
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
		if e.cur, err = e.m.newRun(cs, nil); err != nil {
			return err
		}
		e.curSeconds = float64(cs.Duration)
	}
	e.cur.Step(stepChunk)
	if !e.cur.Done() {
		return nil
	}
	mc := e.cur.outcome()
	mc.Name = c.Name
	e.rows[e.next], e.names[e.next] = e.cur.cells(), c.Name
	e.simSeconds += e.curSeconds
	e.mcases = append(e.mcases, mc)
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
