// Package explore is the design-space exploration subsystem: it turns
// the paper's sizing questions — the eq. 4 capacitor/threshold budgets,
// the eq. 5 FRAM-vs-SRAM runtime crossover, the Fig. 5 power-neutral
// Pareto frontier — from hand-written sweep tables a user eyeballs into
// declarative explorations a machine answers.
//
// An exploration Spec names a sweep-free base scenario, a strategy that
// decides which points of the design space to probe (an exhaustive grid
// scan, a bisection hunting a crossover to a tolerance, or successive
// grid refinement around the incumbent), and streaming aggregators that
// reduce the probe stream to a bounded answer (top-k by one objective,
// a Pareto frontier over several). Objectives are the structured
// metrics every scenario model documents (scenario.Model.Metrics) and
// fills into ModelCase.Metrics — no report-text parsing anywhere.
//
// The package never executes scenarios itself: Run takes an Evaluator
// that maps a sweep-free scenario spec to its metrics. The CLI injects
// a direct scenario.RunModel call; the ehsimd service injects its tiered
// result cache, so every probed case is keyed by its per-case spec hash
// and repeated explorations over overlapping grids get cheaper over
// time. Because the report text is rendered here from the evaluation
// stream alone — deterministic in the spec, independent of worker count
// and cache state — the two front-ends are byte-identical by
// construction.
package explore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/scenario"
)

// MaxEvaluations bounds the total number of case evaluations one
// exploration may perform across all rounds — the same allocation-bomb
// guard scenario.MaxGridCases provides for declared sweeps, applied to
// machine-generated probe streams.
const MaxEvaluations = scenario.MaxGridCases

// DefaultRefinePoints is the per-axis grid resolution of a refinement
// round when the spec leaves it unset.
const DefaultRefinePoints = 5

// DefaultRefineRounds is the refinement depth when the spec leaves it
// unset: each round halves every axis span, so three rounds shrink the
// search box 8x while re-using the incumbent's neighbourhood.
const DefaultRefineRounds = 3

// DefaultParetoCapacity bounds a Pareto frontier aggregator when the
// spec leaves it unset.
const DefaultParetoCapacity = 512

// Spec is one declarative exploration.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Base is the sweep-free scenario every probe derives from; the
	// strategy owns the axes, so a base declaring its own sweep is
	// rejected.
	Base scenario.Spec `json:"base"`

	Strategy Strategy `json:"strategy"`

	// Aggregators reduce the evaluation stream; each renders one block
	// of the report. Optional for bisect (the crossover is the answer),
	// required for grid and refine (an unaggregated grid scan is just a
	// sweep — write a sweep spec instead).
	Aggregators []Aggregator `json:"aggregators,omitempty"`
}

// Strategy selects and parameterises the probe-point generator.
type Strategy struct {
	// Kind is "grid", "bisect", or "refine".
	Kind string `json:"kind"`

	// Axes declares the scan grid (kind "grid"): the same axis syntax
	// as a scenario sweep, applied to the base spec.
	Axes []scenario.Axis `json:"axes,omitempty"`

	// Refine declares the numeric search box (kind "refine").
	Refine []RefineAxis `json:"refine,omitempty"`

	// Rounds is the refinement depth (kind "refine"); 0 selects
	// DefaultRefineRounds.
	Rounds int `json:"rounds,omitempty"`

	// Objective names the metric the strategy optimises (kinds
	// "refine" and "bisect"); it must be one the base model documents.
	Objective string `json:"objective,omitempty"`

	// Goal is "min" or "max" (kind "refine"; default "min").
	Goal string `json:"goal,omitempty"`

	// Param, Lo, Hi, Tolerance bracket the bisection (kind "bisect"):
	// the strategy hunts the sign change of A's objective minus B's
	// along Param until the bracket is narrower than Tolerance.
	Param     string          `json:"param,omitempty"`
	Lo        *scenario.Value `json:"lo,omitempty"`
	Hi        *scenario.Value `json:"hi,omitempty"`
	Tolerance *scenario.Value `json:"tolerance,omitempty"`

	// A and B are the two design variants whose objective difference
	// crosses zero (kind "bisect") — for eq. 5, the quickrecall (FRAM)
	// and hibernus (SRAM) runtimes.
	A *Variant `json:"a,omitempty"`
	B *Variant `json:"b,omitempty"`
}

// RefineAxis is one numeric dimension of a refinement search box.
type RefineAxis struct {
	Param  string         `json:"param"`
	Lo     scenario.Value `json:"lo"`
	Hi     scenario.Value `json:"hi"`
	Points int            `json:"points,omitempty"` // 0 selects DefaultRefinePoints
}

// Variant is one named design alternative: a set of spec overrides
// applied on top of the base (and the bisection coordinate).
type Variant struct {
	Name string     `json:"name"`
	Set  []Override `json:"set,omitempty"`
}

// Override sets one spec parameter: Value for numeric params, Name for
// registry-name params (workload, source, runtime, governor) — the
// same split as a sweep axis.
type Override struct {
	Param string          `json:"param"`
	Value *scenario.Value `json:"value,omitempty"`
	Name  string          `json:"name,omitempty"`
}

// Aggregator declares one streaming reduction over the evaluations.
type Aggregator struct {
	// Kind is "topk" or "pareto".
	Kind string `json:"kind"`

	// K and Metric parameterise topk: keep the K best cases by Metric.
	K      int    `json:"k,omitempty"`
	Metric string `json:"metric,omitempty"`

	// Goal is "min" or "max" for topk (default "min").
	Goal string `json:"goal,omitempty"`

	// Metrics and Senses parameterise pareto: the frontier dimensions
	// and, per dimension, "min" or "max".
	Metrics []string `json:"metrics,omitempty"`
	Senses  []string `json:"senses,omitempty"`

	// Capacity bounds the frontier (default DefaultParetoCapacity);
	// on overflow the worst point by the first dimension is dropped,
	// deterministically.
	Capacity int `json:"capacity,omitempty"`
}

// Parse decodes and validates an exploration spec. Unknown fields and
// non-whitespace bytes after the JSON value are errors, matching
// scenario.Parse.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	if off := dec.InputOffset(); len(bytes.Trim(data[off:], " \t\r\n")) > 0 {
		return nil, fmt.Errorf("explore: unexpected data after the exploration at byte %d", off)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses an exploration spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// errf wraps an error with the exploration's identity.
func (s *Spec) errf(format string, args ...any) error {
	return fmt.Errorf("exploration %q: %w", s.Name, fmt.Errorf(format, args...))
}

// Validate checks the exploration's shape: the base is a valid
// sweep-free scenario, the strategy is complete and within evaluation
// bounds, and every objective names a metric the base's model documents.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("explore: name is required")
	}
	if s.Base.HasSweep() {
		return s.errf("base must be sweep-free (the strategy owns the axes)")
	}
	if err := s.Base.Validate(); err != nil {
		return s.errf("base: %w", err)
	}
	m, err := scenario.LookupModel(s.Base.ModelName())
	if err != nil {
		return s.errf("%w", err)
	}
	docs := map[string]bool{}
	var keys []string
	for _, d := range m.Metrics() {
		docs[d.Key] = true
		keys = append(keys, d.Key)
	}
	checkMetric := func(what, key string) error {
		if key == "" {
			return s.errf("%s is required", what)
		}
		if !docs[key] {
			return s.errf("%s %q is not a metric of model %q (metrics: %s)",
				what, key, s.Base.ModelName(), strings.Join(keys, ", "))
		}
		return nil
	}

	st := &s.Strategy
	switch st.Kind {
	case "grid":
		if len(st.Axes) == 0 {
			return s.errf("grid strategy needs at least one axis")
		}
		if st.Param != "" || st.A != nil || st.B != nil || len(st.Refine) > 0 {
			return s.errf("grid strategy takes only axes")
		}
		// Delegate axis validation (shape, point probing, grid bounds)
		// to the scenario layer by validating the expanded work spec.
		work := s.Base.Clone()
		work.Sweep = st.Axes
		if err := work.Validate(); err != nil {
			return s.errf("axes: %w", err)
		}
	case "bisect":
		if len(st.Axes) > 0 || len(st.Refine) > 0 {
			return s.errf("bisect strategy takes param/lo/hi/tolerance, not axes")
		}
		if st.Param == "" {
			return s.errf("bisect strategy needs a param")
		}
		if st.Lo == nil || st.Hi == nil || float64(*st.Lo) >= float64(*st.Hi) {
			return s.errf("bisect strategy needs lo < hi")
		}
		if st.Tolerance == nil || float64(*st.Tolerance) <= 0 {
			return s.errf("bisect strategy needs a positive tolerance")
		}
		if float64(*st.Tolerance) >= float64(*st.Hi)-float64(*st.Lo) {
			return s.errf("tolerance %g is not smaller than the bracket span %g",
				float64(*st.Tolerance), float64(*st.Hi)-float64(*st.Lo))
		}
		if err := checkMetric("bisect objective", st.Objective); err != nil {
			return err
		}
		if st.A == nil || st.B == nil {
			return s.errf("bisect strategy needs variants a and b")
		}
		for _, v := range []*Variant{st.A, st.B} {
			if v.Name == "" {
				return s.errf("bisect variants need names")
			}
			// Probe both bracket ends through Apply+Validate so a bad
			// param or override fails at parse time, not mid-bisection.
			for _, x := range []float64{float64(*st.Lo), float64(*st.Hi)} {
				if _, err := s.variantSpec(v, x); err != nil {
					return err
				}
			}
		}
		if st.A.Name == st.B.Name {
			return s.errf("bisect variants need distinct names (both %q)", st.A.Name)
		}
	case "refine":
		if len(st.Refine) == 0 {
			return s.errf("refine strategy needs at least one refine axis")
		}
		if len(st.Axes) > 0 || st.Param != "" {
			return s.errf("refine strategy takes refine axes only")
		}
		if err := checkMetric("refine objective", st.Objective); err != nil {
			return err
		}
		switch st.Goal {
		case "", "min", "max":
		default:
			return s.errf("refine goal must be min or max (got %q)", st.Goal)
		}
		perRound := 1
		for i, ax := range st.Refine {
			if ax.Param == "" {
				return s.errf("refine[%d]: param is required", i)
			}
			if float64(ax.Lo) >= float64(ax.Hi) {
				return s.errf("refine[%d] (%s): lo < hi required", i, ax.Param)
			}
			if ax.Points < 0 || ax.Points == 1 {
				return s.errf("refine[%d] (%s): points must be ≥ 2", i, ax.Param)
			}
			perRound *= ax.points()
			// Probe the box corners for shape errors.
			for _, x := range []float64{float64(ax.Lo), float64(ax.Hi)} {
				probe := s.Base.Clone()
				if err := probe.Apply(ax.Param, x); err != nil {
					return s.errf("refine[%d]: %w", i, err)
				}
				if err := probe.Validate(); err != nil {
					return s.errf("refine[%d] (%s=%g): %w", i, ax.Param, x, err)
				}
			}
		}
		if perRound*st.rounds() > MaxEvaluations {
			return s.errf("refinement probes up to %d cases (limit %d)", perRound*st.rounds(), MaxEvaluations)
		}
	default:
		return s.errf("unknown strategy kind %q (valid: grid, bisect, refine)", st.Kind)
	}

	if st.Kind != "bisect" && len(s.Aggregators) == 0 {
		return s.errf("%s strategy needs at least one aggregator (an unaggregated scan is a sweep — use a scenario spec)", st.Kind)
	}
	for i, a := range s.Aggregators {
		switch a.Kind {
		case "topk":
			if a.K < 1 {
				return s.errf("aggregators[%d]: topk needs k ≥ 1", i)
			}
			if err := checkMetric(fmt.Sprintf("aggregators[%d] metric", i), a.Metric); err != nil {
				return err
			}
			switch a.Goal {
			case "", "min", "max":
			default:
				return s.errf("aggregators[%d]: goal must be min or max (got %q)", i, a.Goal)
			}
			if len(a.Metrics) > 0 || len(a.Senses) > 0 {
				return s.errf("aggregators[%d]: topk takes metric/goal, not metrics/senses", i)
			}
		case "pareto":
			if len(a.Metrics) < 2 {
				return s.errf("aggregators[%d]: pareto needs at least two metrics", i)
			}
			if len(a.Senses) != len(a.Metrics) {
				return s.errf("aggregators[%d]: pareto needs one sense per metric (%d metrics, %d senses)",
					i, len(a.Metrics), len(a.Senses))
			}
			for j, sense := range a.Senses {
				if sense != "min" && sense != "max" {
					return s.errf("aggregators[%d]: sense[%d] must be min or max (got %q)", i, j, sense)
				}
				if err := checkMetric(fmt.Sprintf("aggregators[%d] metric", i), a.Metrics[j]); err != nil {
					return err
				}
			}
			if a.Capacity < 0 {
				return s.errf("aggregators[%d]: capacity must be non-negative", i)
			}
			if a.K != 0 || a.Metric != "" {
				return s.errf("aggregators[%d]: pareto takes metrics/senses, not k/metric", i)
			}
		default:
			return s.errf("aggregators[%d]: unknown kind %q (valid: topk, pareto)", i, a.Kind)
		}
	}
	return nil
}

// rounds resolves the effective refinement depth.
func (st *Strategy) rounds() int {
	if st.Rounds > 0 {
		return st.Rounds
	}
	return DefaultRefineRounds
}

// points resolves one refine axis's effective per-round resolution.
func (ax *RefineAxis) points() int {
	if ax.Points > 0 {
		return ax.Points
	}
	return DefaultRefinePoints
}

// variantSpec derives the sweep-free scenario spec for variant v at
// bisection coordinate x: base + param=x + the variant's overrides,
// re-validated so model constraints hold at every probed point.
func (s *Spec) variantSpec(v *Variant, x float64) (*scenario.Spec, error) {
	sp := s.Base.Clone()
	if err := sp.Apply(s.Strategy.Param, x); err != nil {
		return nil, s.errf("variant %q: %w", v.Name, err)
	}
	for _, o := range v.Set {
		var val any
		switch {
		case o.Value != nil && o.Name != "":
			return nil, s.errf("variant %q: override %q sets both value and name", v.Name, o.Param)
		case o.Value != nil:
			val = float64(*o.Value)
		case o.Name != "":
			val = o.Name
		default:
			return nil, s.errf("variant %q: override %q needs a value or a name", v.Name, o.Param)
		}
		if err := sp.Apply(o.Param, val); err != nil {
			return nil, s.errf("variant %q: %w", v.Name, err)
		}
	}
	if err := sp.Validate(); err != nil {
		return nil, s.errf("variant %q at %s=%g: %w", v.Name, s.Strategy.Param, x, err)
	}
	return sp, nil
}

// Hash returns the exploration's content address: sha256 over the
// canonical JSON encoding (struct field order, sorted map keys — the
// deterministic form encoding/json produces for this shape). The
// service keys exploration jobs by it, mixed with the engine version.
func (s *Spec) Hash() (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", s.errf("hash: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
