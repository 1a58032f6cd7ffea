package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/powerneutral"
	"repro/internal/programs"
	"repro/internal/registry"
	"repro/internal/source"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/transient"
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
	}
}

// labMetrics extracts the lab engine's structured objectives from one
// case result. Undefined values (energy/op and first-completion with
// zero completions, packet counts without a peripheral bank) are
// omitted, per the ModelCase.Metrics contract. A valid supply near
// 1e200 V overflows the rail's energy sums, so a non-finite harvested,
// consumed or energy/op is omitted too.
func labMetrics(res lab.Result, duration float64) map[string]float64 {
	st := res.Stats
	m := map[string]float64{
		"completions": float64(res.Completions),
		"wrong":       float64(res.WrongResults),
		"throughput":  res.Throughput(duration),
		"snapshots":   float64(st.SavesStarted),
		"restores":    float64(st.Restores),
		"brownouts":   float64(st.BrownOuts),
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

// Engine implements Model: a blocking single-run engine without sweep
// axes, a wave-stepped sweep engine with them. The rendered bytes (and
// the golden corpus pinning them) are unchanged from the historical
// Run path.
func (labModel) Engine(sp *Spec, opts RunOptions, checkpoint []byte) (Engine, error) {
	if !sp.HasSweep() {
		// A cycle-level single run has no cheap interior checkpoint: its
		// restart marker resumes from zero, so any prior state is
		// (correctly) ignored.
		return &labSingleEngine{sp: sp, opts: opts}, nil
	}
	return newLabSweepEngine(sp, opts, checkpoint)
}

// labSingleEngine runs one cycle-level lab experiment in a single
// (blocking) Step. The merged stop channel is wired into the lab's
// abort hook, so cancellation and checkpoint requests both interrupt
// the run; a checkpoint suspends with a restart-from-zero marker —
// trading the partial work for the guarantee that the resumed run is
// byte-identical to an uninterrupted one.
type labSingleEngine struct {
	sp   *Spec
	opts RunOptions

	res  lab.Result
	rec  *trace.Recorder
	done bool
}

// labSingleState is the (empty) restart marker a single lab run
// checkpoints to.
type labSingleState struct {
	Restart bool `json:"restart"`
}

// Step implements Engine: run the whole experiment.
func (e *labSingleEngine) Step() error {
	s, err := e.sp.Setup()
	if err != nil {
		return err
	}
	s.Abort = e.opts.stop
	var rec *trace.Recorder
	if e.opts.Trace {
		rec = trace.NewRecorder()
		s.Recorder = rec
		s.RecordInterval = e.opts.interval()
	}
	res, err := lab.Run(s)
	if errors.Is(err, lab.ErrAborted) {
		if checkpointRequested(e.opts) {
			// The driver re-checks its channels before the next Step
			// and captures the restart marker.
			return nil
		}
		return sweep.ErrCanceled
	}
	if err != nil {
		return err
	}
	e.res, e.rec, e.done = res, rec, true
	if e.opts.Progress != nil {
		e.opts.Progress(1, 1)
	}
	return nil
}

// Done implements Engine.
func (e *labSingleEngine) Done() bool { return e.done }

// Progress implements Engine.
func (e *labSingleEngine) Progress() (int, int) {
	if e.done {
		return 1, 1
	}
	return 0, 1
}

// Checkpoint implements Engine: a restart-from-zero marker.
func (e *labSingleEngine) Checkpoint() ([]byte, error) {
	return json.Marshal(labSingleState{Restart: true})
}

// Report implements Engine.
func (e *labSingleEngine) Report() (*ModelReport, error) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, SingleTitle(e.sp))
	writeSummary(&buf, e.res, float64(e.sp.Duration))
	return &ModelReport{
		Cases:      []ModelCase{{Name: e.sp.Name, Lab: e.res, Metrics: labMetrics(e.res, float64(e.sp.Duration))}},
		SimSeconds: float64(e.sp.Duration),
		Trace:      e.rec,
		Text:       buf.String(),
	}, nil
}

// labSweepEngine fans grid cases out over the worker pool one wave at a
// time: each Step runs up to one wave of workers cases through
// sweep.MapCases, so the driver's cancel/checkpoint checks run between
// waves. Its checkpoint is the completed-case prefix (the in-flight
// wave is discarded — per-case determinism makes the re-run
// byte-identical); the wave size never affects results, only the
// checkpoint granularity.
type labSweepEngine struct {
	sp   *Spec
	opts RunOptions

	cases   []sweep.Case
	results []lab.Result
	next    int // cases[:next] are complete
	wave    int
	rec     *trace.Recorder
}

// labSweepState is the serialised checkpoint of a labSweepEngine.
type labSweepState struct {
	Done    int             `json:"done"`
	Results []wireLabResult `json:"results"`
	Trace   []byte          `json:"trace,omitempty"`
}

// wireLabResult is lab.Result with the error field flattened to its
// message, so checkpoints survive a JSON round trip losslessly for
// everything the report renders.
type wireLabResult struct {
	Completions     int
	WrongResults    int
	CompletionTimes []float64
	Stats           mcu.Stats
	HarvestedJ      float64
	ConsumedJ       float64
	FinalV          float64
	RuntimeErr      string
	Steps           int
	FirstCompletion float64
	Bank            bool `json:",omitempty"`
	TxDelivered     int  `json:",omitempty"`
	TxDropped       int  `json:",omitempty"`
}

// toWire flattens a lab.Result for serialisation.
func toWire(res lab.Result) wireLabResult {
	w := wireLabResult{
		Completions:     res.Completions,
		WrongResults:    res.WrongResults,
		CompletionTimes: res.CompletionTimes,
		Stats:           res.Stats,
		HarvestedJ:      res.HarvestedJ,
		ConsumedJ:       res.ConsumedJ,
		FinalV:          res.FinalV,
		Steps:           res.Steps,
		FirstCompletion: res.FirstCompletion,
		Bank:            res.Bank,
		TxDelivered:     res.TxDelivered,
		TxDropped:       res.TxDropped,
	}
	if res.RuntimeErr != nil {
		w.RuntimeErr = res.RuntimeErr.Error()
	}
	return w
}

// fromWire reverses toWire.
func fromWire(w wireLabResult) lab.Result {
	res := lab.Result{
		Completions:     w.Completions,
		WrongResults:    w.WrongResults,
		CompletionTimes: w.CompletionTimes,
		Stats:           w.Stats,
		HarvestedJ:      w.HarvestedJ,
		ConsumedJ:       w.ConsumedJ,
		FinalV:          w.FinalV,
		Steps:           w.Steps,
		FirstCompletion: w.FirstCompletion,
		Bank:            w.Bank,
		TxDelivered:     w.TxDelivered,
		TxDropped:       w.TxDropped,
	}
	if w.RuntimeErr != "" {
		res.RuntimeErr = errors.New(w.RuntimeErr)
	}
	return res
}

// newLabSweepEngine builds the sweep engine, restoring the completed
// prefix when checkpoint is non-nil.
func newLabSweepEngine(sp *Spec, opts RunOptions, checkpoint []byte) (*labSweepEngine, error) {
	cases := sp.Grid().Cases()
	wave := opts.Workers
	if wave <= 0 {
		wave = runtime.GOMAXPROCS(0)
	}
	e := &labSweepEngine{
		sp: sp, opts: opts,
		cases:   cases,
		results: make([]lab.Result, len(cases)),
		wave:    wave,
	}
	if checkpoint != nil {
		var st labSweepState
		if err := json.Unmarshal(checkpoint, &st); err != nil {
			return nil, sp.errf("sweep checkpoint: %w", err)
		}
		if st.Done < 0 || st.Done > len(cases) || len(st.Results) != st.Done {
			return nil, sp.errf("sweep checkpoint is inconsistent with the spec's %d cases", len(cases))
		}
		for i, w := range st.Results {
			e.results[i] = fromWire(w)
		}
		e.next = st.Done
		if st.Trace != nil {
			rec, err := trace.DecodeRecorder(st.Trace)
			if err != nil {
				return nil, sp.errf("sweep checkpoint trace: %w", err)
			}
			e.rec = rec
		}
	}
	return e, nil
}

// Step implements Engine: run the next wave of cases on the pool.
func (e *labSweepEngine) Step() error {
	end := e.next + e.wave
	if end > len(e.cases) {
		end = len(e.cases)
	}
	batch := e.cases[e.next:end]
	// On a sweep, Trace captures the first grid case (Case.Index == 0) —
	// one representative waveform, deterministically chosen, so sweep
	// shapes get a pinnable trace too. MapCases' completion barrier
	// orders the worker's writes before the read below.
	var rec *trace.Recorder
	base, total := e.next, len(e.cases)
	r := &sweep.Runner{Workers: e.opts.Workers, Cancel: e.opts.stop}
	if e.opts.Progress != nil {
		r.OnProgress = func(done, _ int) { e.opts.Progress(base+done, total) }
	}
	out, err := sweep.MapCases(r, batch, func(c sweep.Case) (lab.Result, error) {
		s, err := e.sp.SetupAt(c)
		if err != nil {
			return lab.Result{}, err
		}
		s.Abort = e.opts.stop
		if e.opts.Trace && c.Index == 0 {
			rec = trace.NewRecorder()
			s.Recorder = rec
			s.RecordInterval = e.opts.interval()
		}
		return lab.Run(s)
	})
	if err != nil {
		// A case interrupted mid-run by the stop channel surfaces as its
		// abort error; fold it into the uniform signals. A checkpoint
		// request discards the interrupted wave — cases[:next] stay
		// complete, and re-running the wave is deterministic.
		if errors.Is(err, lab.ErrAborted) || errors.Is(err, sweep.ErrCanceled) {
			if checkpointRequested(e.opts) {
				return nil
			}
			return sweep.ErrCanceled
		}
		return err
	}
	copy(e.results[e.next:end], out)
	if rec != nil {
		e.rec = rec
	}
	e.next = end
	return nil
}

// Done implements Engine.
func (e *labSweepEngine) Done() bool { return e.next >= len(e.cases) }

// Progress implements Engine.
func (e *labSweepEngine) Progress() (int, int) { return e.next, len(e.cases) }

// Checkpoint implements Engine: serialise the completed prefix and the
// case-0 trace (captured iff the first wave completed).
func (e *labSweepEngine) Checkpoint() ([]byte, error) {
	st := labSweepState{Done: e.next, Results: make([]wireLabResult, e.next)}
	for i := 0; i < e.next; i++ {
		st.Results[i] = toWire(e.results[i])
	}
	if e.rec != nil {
		st.Trace = trace.EncodeRecorder(e.rec)
	}
	return json.Marshal(st)
}

// Report implements Engine: render the sweep table.
func (e *labSweepEngine) Report() (*ModelReport, error) {
	var buf bytes.Buffer
	rep := &ModelReport{Sweep: true}
	fmt.Fprintf(&buf, "scenario %s: sweep over %s, %d cases\n",
		e.sp.Name, SweepAxesLabel(e.sp), len(e.cases))
	names := make([]string, len(e.cases))
	rep.Cases = make([]ModelCase, len(e.cases))
	for i, c := range e.cases {
		names[i] = c.Name
		d := caseDuration(e.sp, c)
		rep.Cases[i] = ModelCase{Name: c.Name, Lab: e.results[i], Metrics: labMetrics(e.results[i], d)}
		rep.SimSeconds += d
	}
	writeSweepTable(&buf, names, e.results)
	rep.Trace = e.rec
	rep.Text = buf.String()
	return rep, nil
}

// caseDuration resolves one grid case's simulated duration: the spec's,
// unless a "duration" axis overrides it.
func caseDuration(sp *Spec, c sweep.Case) float64 {
	if v, ok := c.Values["duration"]; ok {
		if f, ok := v.(float64); ok {
			return f
		}
	}
	return float64(sp.Duration)
}
