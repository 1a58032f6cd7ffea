package explore

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Outcome is what evaluating one derived case yields: the model's
// structured metrics and the simulated seconds the evaluation covered
// (zero when a cache tier served it — sim-seconds measure work done).
type Outcome struct {
	Metrics    map[string]float64
	SimSeconds float64
}

// Evaluator maps one sweep-free scenario spec to its metrics. The CLI
// injects a direct scenario.RunModel call (result.RunExploration); the
// service injects its tiered result cache. The evaluator must be safe for concurrent use —
// strategies fan probe batches out across workers.
type Evaluator func(sp *scenario.Spec) (Outcome, error)

// Options tunes one exploration run.
type Options struct {
	// Evaluate executes one probe (required).
	Evaluate Evaluator

	// Workers bounds the per-batch evaluation parallelism (0 = one per
	// core). The report is identical for every worker count: batches
	// are collected and aggregated in probe order.
	Workers int

	// Progress, if non-nil, is called as probes complete. total is the
	// strategy's upper bound on evaluations (bisection and refinement
	// may finish under it).
	Progress func(done, total int)

	// Cancel, if non-nil, aborts the exploration when closed: Run
	// returns sweep.ErrCanceled.
	Cancel <-chan struct{}
}

// Crossover is a bisection strategy's answer.
type Crossover struct {
	Param string

	// Value is the bracket midpoint — the crossover estimate.
	Value float64

	// Lo, Hi is the final bracket (Hi-Lo ≤ tolerance), and DeltaLo,
	// DeltaHi the objective difference A−B at its ends (opposite
	// signs, or zero when a probe landed exactly on the crossing).
	Lo, Hi           float64
	DeltaLo, DeltaHi float64

	// Probes counts bracketing steps; each costs two evaluations.
	Probes int
}

// Report is one exploration's complete outcome.
type Report struct {
	// Text is the canonical rendering — byte-identical between
	// `ehsim-explore` and the service's /result endpoint because it is
	// a pure function of the spec and the (deterministic) evaluations.
	Text string

	// Evaluations counts evaluator calls; Memoized counts refinement
	// probes answered from the in-run memo instead.
	Evaluations int
	Memoized    int

	// SimSeconds totals the evaluators' reported simulated time — the
	// service's work-done metric. It is the one field that legitimately
	// differs between a cold and a warm run (cache hits do no work), so
	// it stays out of Text.
	SimSeconds float64

	// Crossover is the bisection answer (nil for other strategies).
	Crossover *Crossover

	// Incumbent is the refinement winner (nil for other strategies).
	Incumbent *Eval

	// Aggregates holds each aggregator's surviving evaluations, in
	// spec order.
	Aggregates [][]Eval
}

// batchSize bounds how many derived specs exist at once: grids stream
// through CaseAt in batches, so a million-case exploration holds a few
// hundred cases in memory, not a slice of all of them.
const batchSize = 256

// Run executes a validated exploration spec.
func Run(s *Spec, opts Options) (*Report, error) {
	if opts.Evaluate == nil {
		return nil, s.errf("explore.Run needs an Evaluator")
	}
	r := &runner{spec: s, opts: opts}
	for _, a := range s.Aggregators {
		r.aggs = append(r.aggs, newAggregator(a))
	}
	var err error
	switch s.Strategy.Kind {
	case "grid":
		err = r.runGrid()
	case "bisect":
		r.crossover, err = r.runBisect()
	case "refine":
		err = r.runRefine()
	default:
		err = s.errf("unknown strategy kind %q (valid: grid, bisect, refine)", s.Strategy.Kind)
	}
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Evaluations: r.evals,
		Memoized:    r.memoized,
		SimSeconds:  r.sim,
		Crossover:   r.crossover,
		Incumbent:   r.incumbent,
	}
	for _, a := range r.aggs {
		rep.Aggregates = append(rep.Aggregates, a.results())
	}
	rep.Text = r.renderText()
	return rep, nil
}

// runner carries one Run's state.
type runner struct {
	spec *Spec
	opts Options

	aggs      []aggregator
	crossover *Crossover
	incumbent *Eval // refinement winner

	seq      int     // next evaluation sequence number
	evals    int     // evaluator calls
	memoized int     // refinement memo hits
	sim      float64 // simulated seconds across evaluations
	total    int     // progress upper bound
}

// probe is one derived case awaiting evaluation.
type probe struct {
	name string
	sp   *scenario.Spec
}

func (r *runner) canceled() bool {
	if r.opts.Cancel == nil {
		return false
	}
	select {
	case <-r.opts.Cancel:
		return true
	default:
		return false
	}
}

// evalBatch evaluates one probe batch on the sweep worker pool and
// returns the evaluations in probe order, sequence numbers assigned in
// that same order — so downstream aggregation is worker-count
// independent. The lowest-index error wins, as in sweep.MapCases, and
// progress counts on from the batches before.
func (r *runner) evalBatch(probes []probe) ([]Eval, error) {
	cases := make([]sweep.Case, len(probes))
	for i, p := range probes {
		cases[i] = sweep.Case{Index: i, Name: p.name}
	}
	pool := &sweep.Runner{Workers: r.opts.Workers}
	if r.opts.Progress != nil {
		base := r.evals
		pool.OnProgress = func(done, _ int) { r.opts.Progress(base+done, max(base+done, r.total)) }
	}
	outs, err := sweep.MapCases(pool, cases, func(c sweep.Case) (Outcome, error) {
		if r.canceled() {
			return Outcome{}, sweep.ErrCanceled
		}
		out, err := r.opts.Evaluate(probes[c.Index].sp)
		if err != nil {
			return Outcome{}, fmt.Errorf("exploration %q: case %q: %w", r.spec.Name, c.Name, err)
		}
		return out, nil
	})
	if err != nil {
		// MapCases prefixes the failing case's name; the error above
		// already names it.
		return nil, errors.Unwrap(err)
	}
	evals := make([]Eval, len(probes))
	for i := range probes {
		evals[i] = Eval{Seq: r.seq, Case: probes[i].name, Metrics: outs[i].Metrics}
		r.seq++
		r.evals++
		r.sim += outs[i].SimSeconds
	}
	return evals, nil
}

// feed streams one evaluation to every aggregator, in spec order.
func (r *runner) feed(e Eval) {
	for _, a := range r.aggs {
		a.add(e)
	}
}

// objective extracts the strategy's objective from one evaluation,
// erroring with the case and metric names when the model left it
// undefined there.
func (r *runner) objective(e Eval) (float64, error) {
	v, ok := e.Metrics[r.spec.Strategy.Objective]
	if !ok {
		return 0, r.spec.errf("case %q reports no %q (the objective is undefined there — e.g. no completions for energy_per_op); narrow the search space",
			e.Case, r.spec.Strategy.Objective)
	}
	return v, nil
}

// ---- grid strategy ----

// runGrid streams the declared grid through CaseAt in bounded batches.
func (r *runner) runGrid() error {
	work := r.spec.Base.Clone()
	work.Sweep = r.spec.Strategy.Axes
	grid := work.Grid()
	n, err := grid.SizeChecked()
	if err != nil {
		return r.spec.errf("%w", err)
	}
	r.total = n
	for start := 0; start < n; start += batchSize {
		if r.canceled() {
			return sweep.ErrCanceled
		}
		end := min(start+batchSize, n)
		probes := make([]probe, 0, end-start)
		for i := start; i < end; i++ {
			c := grid.CaseAt(i)
			cs, err := work.At(c)
			if err != nil {
				return r.spec.errf("%w", err)
			}
			probes = append(probes, probe{name: c.Name, sp: cs})
		}
		evals, err := r.evalBatch(probes)
		if err != nil {
			return err
		}
		for _, e := range evals {
			r.feed(e)
		}
	}
	return nil
}

// ---- bisect strategy ----

// bisectSteps returns the bracketing-step bound for a bracket span and
// tolerance: each step halves the span.
func bisectSteps(span, tol float64) int {
	return int(math.Ceil(math.Log2(span / tol)))
}

// runBisect hunts the sign change of objective(A)−objective(B) along
// the strategy's param. Each probe evaluates both variants (one batch
// of two, so they can run in parallel) and feeds the aggregators too.
func (r *runner) runBisect() (*Crossover, error) {
	st := &r.spec.Strategy
	lo, hi, tol := float64(*st.Lo), float64(*st.Hi), float64(*st.Tolerance)
	r.total = 2 * (2 + bisectSteps(hi-lo, tol))

	delta := func(x float64) (float64, error) {
		if r.canceled() {
			return 0, sweep.ErrCanceled
		}
		probes := make([]probe, 0, 2)
		for _, v := range []*Variant{st.A, st.B} {
			sp, err := r.spec.variantSpec(v, x)
			if err != nil {
				return 0, err
			}
			name := fmt.Sprintf("%s@%s=%s", v.Name, st.Param, scenario.AxisLabel(st.Param, x))
			probes = append(probes, probe{name: name, sp: sp})
		}
		evals, err := r.evalBatch(probes)
		if err != nil {
			return 0, err
		}
		var vals [2]float64
		for i, e := range evals {
			r.feed(e)
			if vals[i], err = r.objective(e); err != nil {
				return 0, err
			}
		}
		return vals[0] - vals[1], nil
	}

	dlo, err := delta(lo)
	if err != nil {
		return nil, err
	}
	dhi, err := delta(hi)
	if err != nil {
		return nil, err
	}
	probes := 2
	switch {
	case dlo == 0:
		return &Crossover{Param: st.Param, Value: lo, Lo: lo, Hi: lo, Probes: probes}, nil
	case dhi == 0:
		return &Crossover{Param: st.Param, Value: hi, Lo: hi, Hi: hi, Probes: probes}, nil
	case (dlo > 0) == (dhi > 0):
		return nil, r.spec.errf("no crossover: Δ%s keeps its sign over [%g, %g] (Δ(lo)=%g, Δ(hi)=%g)",
			st.Objective, lo, hi, dlo, dhi)
	}
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		dmid, err := delta(mid)
		if err != nil {
			return nil, err
		}
		probes++
		if dmid == 0 {
			lo, hi, dlo, dhi = mid, mid, 0, 0
			break
		}
		if (dmid > 0) == (dlo > 0) {
			lo, dlo = mid, dmid
		} else {
			hi, dhi = mid, dmid
		}
	}
	return &Crossover{
		Param: st.Param, Value: lo + (hi-lo)/2,
		Lo: lo, Hi: hi, DeltaLo: dlo, DeltaHi: dhi, Probes: probes,
	}, nil
}

// ---- refine strategy ----

// refineState is one refinement run's search box. The box is kept in
// units of the first round's grid step from the axis's lo: every later
// round's step is that unit over a power of two, so grid indices stay
// exact and a point that two rounds share maps to one bit-identical
// value — one memo key, one simulation.
type refineState struct {
	axes             []RefineAxis
	lo, span         []float64 // current box, in first-round steps
	points           []int
	perRound, rounds int
}

// runRefine scans successively smaller grids centered on the incumbent:
// each round evaluates an evenly spaced grid over the current box,
// re-centers the box on the best point seen so far, and halves every
// axis span. Probes are memoized by coordinate, so overlapping rounds
// pay for new points only — and the aggregators still see each unique
// point exactly once, in a spec-deterministic order.
func (r *runner) runRefine() error {
	st := &r.spec.Strategy
	rs := &refineState{rounds: st.rounds(), perRound: 1}
	for _, ax := range st.Refine {
		rs.axes = append(rs.axes, ax)
		rs.lo = append(rs.lo, 0)
		rs.span = append(rs.span, float64(ax.points()-1))
		rs.points = append(rs.points, ax.points())
		rs.perRound *= ax.points()
	}
	r.total = rs.perRound * rs.rounds

	memo := map[string]Eval{}
	var incumbent *Eval
	var incIdx []float64
	goalMax := st.Goal == "max"
	better := func(a Eval, b *Eval) bool {
		av, ok := a.Metrics[st.Objective]
		if !ok {
			return false // undefined objective: never the incumbent
		}
		if b == nil {
			return true
		}
		bv := b.Metrics[st.Objective]
		if av != bv {
			if goalMax {
				return av > bv
			}
			return av < bv
		}
		return a.Seq < b.Seq
	}

	for round := 0; round < rs.rounds; round++ {
		if r.canceled() {
			return sweep.ErrCanceled
		}
		idxs := rs.roundCoords()
		coords := make([][]float64, len(idxs))
		for i, idx := range idxs {
			coords[i] = rs.values(idx)
		}
		// Partition this round's grid into memo hits and fresh probes,
		// preserving coordinate order for aggregation.
		var fresh []probe
		var freshCoords [][]float64
		for _, coord := range coords {
			if _, ok := memo[coordKey(coord)]; ok {
				r.memoized++
				continue
			}
			sp, name, err := r.refineSpec(rs, coord)
			if err != nil {
				return err
			}
			fresh = append(fresh, probe{name: name, sp: sp})
			freshCoords = append(freshCoords, coord)
		}
		evals, err := r.evalBatch(fresh)
		if err != nil {
			return err
		}
		for i, e := range evals {
			r.feed(e)
			memo[coordKey(freshCoords[i])] = e
		}
		// Re-center on the best point of the full round grid (memoized
		// points included — an earlier round's point can stay the
		// incumbent).
		for i, coord := range coords {
			e := memo[coordKey(coord)]
			if better(e, incumbent) {
				cp := e
				incumbent, incIdx = &cp, idxs[i]
			}
		}
		if incumbent == nil {
			return r.spec.errf("refinement round %d: objective %q undefined at every probed point",
				round+1, st.Objective)
		}
		rs.shrink(incIdx)
	}
	r.incumbent = incumbent
	return nil
}

// roundCoords enumerates the current box's grid indices row-major
// (first axis slowest), matching the sweep engine's declared-order
// convention.
func (rs *refineState) roundCoords() [][]float64 {
	coords := [][]float64{{}}
	for a := range rs.axes {
		n := rs.points[a]
		next := make([][]float64, 0, len(coords)*n)
		for _, c := range coords {
			for i := 0; i < n; i++ {
				// span/(n-1) is a power of two: the sum is exact.
				v := rs.lo[a] + float64(i)*rs.span[a]/float64(n-1)
				next = append(next, append(append([]float64(nil), c...), v))
			}
		}
		coords = next
	}
	return coords
}

// values maps grid indices to axis values: lo + idx·step, with the top
// index pinned to hi. A value is a function of its index alone, and
// the first round's are exactly lo + i·(hi−lo)/(n−1).
func (rs *refineState) values(idx []float64) []float64 {
	out := make([]float64, len(idx))
	for a, ax := range rs.axes {
		lo, hi, top := float64(ax.Lo), float64(ax.Hi), float64(rs.points[a]-1)
		if idx[a] == top {
			out[a] = hi
		} else {
			out[a] = lo + idx[a]*((hi-lo)/top)
		}
	}
	return out
}

// shrink halves every axis span and re-centers it on the incumbent's
// indices, clamped inside the original box.
func (rs *refineState) shrink(center []float64) {
	for a := range rs.axes {
		span := rs.span[a] / 2
		lo := max(center[a]-span/2, 0)
		if top := float64(rs.points[a] - 1); lo+span > top {
			lo = top - span
		}
		rs.lo[a], rs.span[a] = lo, span
	}
}

// refineSpec derives the scenario spec and display name for one
// refinement coordinate, re-validating because interior points were
// not probed at parse time.
func (r *runner) refineSpec(rs *refineState, coord []float64) (*scenario.Spec, string, error) {
	sp := r.spec.Base.Clone()
	var name strings.Builder
	for a, ax := range rs.axes {
		if err := sp.Apply(ax.Param, coord[a]); err != nil {
			return nil, "", r.spec.errf("%w", err)
		}
		if a > 0 {
			name.WriteByte('/')
		}
		fmt.Fprintf(&name, "%s=%s", ax.Param, scenario.AxisLabel(ax.Param, coord[a]))
	}
	if err := sp.Validate(); err != nil {
		return nil, "", r.spec.errf("refinement point %s: %w", name.String(), err)
	}
	return sp, name.String(), nil
}

// coordKey renders a refinement coordinate for memoization; %.17g
// round-trips float64 exactly.
func coordKey(coord []float64) string {
	var b strings.Builder
	for i, v := range coord {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%.17g", v)
	}
	return b.String()
}
