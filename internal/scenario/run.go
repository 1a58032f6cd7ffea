package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/sweep"
	"repro/internal/trace"
)

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
	// cells renders the case's sweep-table row (after Done), in the
	// order of the model's sweepHeader. A row may stop short of the
	// header; writeCellTable fills its missing cells with "-".
	cells() []string
}

// column is one sweep-table column: its title and the width its cells
// are padded to.
type column struct {
	title string
	width int
}

// columns titles a run of same-width columns.
func columns(width int, titles ...string) []column {
	cols := make([]column, len(titles))
	for i, t := range titles {
		cols[i] = column{t, width}
	}
	return cols
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

// newSingleEngine builds the model's run, restoring its state and trace
// when checkpoint is non-nil.
func newSingleEngine(m Model, sp *Spec, opts RunOptions, checkpoint []byte) (*singleEngine, error) {
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
	if e.run, err = m.newRun(sp, e.rec); err != nil {
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

// sweepEngine is the sweep engine of every model: each Step runs the
// next wave of up to opts.Workers grid cases through sweep.MapCases.
// A worker builds its case as an untraced run and steps it stepChunk
// at a time, stopping early when the driver's Cancel or Checkpoint
// channel closes; the wave is then discarded, and, the cases being
// deterministic, re-run byte-identically on resume. The checkpoint is
// the completed prefix, so the wave size never reaches the report,
// only the checkpoint granularity.
type sweepEngine struct {
	sp    *Spec
	opts  RunOptions
	m     Model
	cases []sweep.Case
	wave  int
	done  sweepState // cases[:done.Next] are complete
}

// sweepState is the serialised checkpoint of a sweepEngine: the
// completed prefix's names, rendered rows and outcomes.
type sweepState struct {
	Next       int         `json:"next"`
	Rows       [][]string  `json:"rows"`
	Names      []string    `json:"names"`
	Cases      []ModelCase `json:"cases"`
	SimSeconds float64     `json:"simSeconds"`
}

// sweepCase is one finished case of a wave.
type sweepCase struct {
	mc      ModelCase
	cells   []string
	seconds float64
}

// newSweepEngine builds the sweep engine, restoring the completed
// prefix when checkpoint is non-nil.
func newSweepEngine(m Model, sp *Spec, opts RunOptions, checkpoint []byte) (*sweepEngine, error) {
	e := &sweepEngine{sp: sp, opts: opts, m: m, cases: sp.Grid().Cases(), wave: opts.Workers}
	if e.wave <= 0 {
		e.wave = runtime.GOMAXPROCS(0)
	}
	if checkpoint != nil {
		st := &e.done
		if err := json.Unmarshal(checkpoint, st); err != nil {
			return nil, sp.errf("sweep checkpoint: %w", err)
		}
		if st.Next < 0 || st.Next > len(e.cases) ||
			len(st.Rows) != st.Next || len(st.Names) != st.Next || len(st.Cases) != st.Next {
			return nil, sp.errf("sweep checkpoint is inconsistent with the spec's %d cases", len(e.cases))
		}
	}
	return e, nil
}

// Step implements Engine: run the next wave of cases on the pool.
func (e *sweepEngine) Step() error {
	base, total := e.done.Next, len(e.cases)
	batch := e.cases[base:min(base+e.wave, total)]
	r := &sweep.Runner{Workers: e.opts.Workers}
	if e.opts.Progress != nil {
		r.OnProgress = func(done, _ int) { e.opts.Progress(base+done, total) }
	}
	out, err := sweep.MapCases(r, batch, func(c sweep.Case) (sweepCase, error) {
		cs, err := e.sp.At(c)
		if err != nil {
			return sweepCase{}, err
		}
		run, err := e.m.newRun(cs, nil)
		if err != nil {
			return sweepCase{}, err
		}
		for !run.Done() {
			if canceled(e.opts.Cancel) || canceled(e.opts.Checkpoint) {
				return sweepCase{}, sweep.ErrCanceled
			}
			run.Step(stepChunk)
		}
		mc := run.outcome()
		mc.Name = c.Name
		return sweepCase{mc: mc, cells: run.cells(), seconds: float64(cs.Duration)}, nil
	})
	if errors.Is(err, sweep.ErrCanceled) {
		// A worker saw the driver's Cancel or Checkpoint channel closed:
		// the driver re-checks them and acts.
		return nil
	}
	if err != nil {
		return err
	}
	st := &e.done
	for i, sc := range out {
		st.Names = append(st.Names, batch[i].Name)
		st.Rows = append(st.Rows, sc.cells)
		st.Cases = append(st.Cases, sc.mc)
		st.SimSeconds += sc.seconds
	}
	st.Next += len(out)
	return nil
}

// Done implements Engine.
func (e *sweepEngine) Done() bool { return e.done.Next >= len(e.cases) }

// Checkpoint implements Engine: serialise the completed prefix.
func (e *sweepEngine) Checkpoint() ([]byte, error) { return json.Marshal(e.done) }

// Report implements Engine: render the comparison table.
func (e *sweepEngine) Report() (*ModelReport, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "scenario %s: sweep over %s, %d cases\n",
		e.sp.Name, SweepAxesLabel(e.sp), len(e.cases))
	writeCellTable(&buf, e.m.sweepHeader(), e.done.Names, e.done.Rows)
	return &ModelReport{
		Sweep:      true,
		Text:       buf.String(),
		Cases:      e.done.Cases,
		SimSeconds: e.done.SimSeconds,
	}, nil
}
