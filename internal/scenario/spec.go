// Package scenario makes experiments data instead of code: a Spec is a
// JSON document naming a workload, device profile, storage, energy
// source, transient runtime, optional DFS governor, and optional sweep
// axes — everything a hand-written harness in internal/experiments used
// to wire by hand. Spec.Setup compiles it into a lab.Setup; Spec.Grid
// and Spec.SetupAt expand sweep axes into internal/sweep cases.
//
// Every name in a spec resolves through a layer registry — workloads in
// programs, supplies in source, runtimes in transient (including ones
// other packages register there, like powerneutral's hibernus-pn), and
// governors in powerneutral — so the set of expressible scenarios grows
// with the registries, not with this package.
//
// Numeric fields accept either JSON numbers or SI-suffixed strings
// ("10u", "50k"), matching the CLI convention.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/registry"
	"repro/internal/units"
)

// Value is a float64 that unmarshals from a JSON number or an
// SI-suffixed string ("10u" → 1e-5).
type Value float64

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		f, err := units.ParseSI(s)
		if err != nil {
			return err
		}
		*v = Value(f)
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*v = Value(f)
	return nil
}

// MarshalJSON implements json.Marshaler (plain number form).
func (v Value) MarshalJSON() ([]byte, error) { return json.Marshal(float64(v)) }

// DeviceSpec selects the MCU configuration. Profile "" defers to the
// runtime's requirement (unified-NV runtimes get the unified device);
// "default" and "unified-nv" force a profile. FreqIndex, when set,
// overrides the initial DFS level.
type DeviceSpec struct {
	Profile   string `json:"profile,omitempty"`
	FreqIndex *int   `json:"freqindex,omitempty"`
}

// StorageSpec is the rail storage node.
type StorageSpec struct {
	C     Value `json:"c"`
	V0    Value `json:"v0,omitempty"`
	LeakR Value `json:"leakr,omitempty"`
}

// SourceSpec names an energy source from the source registry.
type SourceSpec struct {
	Name   string           `json:"name"`
	Params map[string]Value `json:"params,omitempty"`
}

// RuntimeSpec names a transient runtime from the runtime registry. An
// empty name means "none" (the unprotected baseline).
type RuntimeSpec struct {
	Name   string           `json:"name,omitempty"`
	Params map[string]Value `json:"params,omitempty"`
}

// GovernorSpec attaches a power-neutral DFS governor (by policy name
// from the governor registry) to the simulation's OnTick hook.
type GovernorSpec struct {
	Policy string           `json:"policy"`
	Params map[string]Value `json:"params,omitempty"`
}

// Axis is one sweep dimension: Param names the spec field it varies (see
// Apply for the accepted paths) and exactly one of Values (numeric
// params) or Names (registry-name params: "workload", "source",
// "runtime", "governor") holds the points.
type Axis struct {
	Param  string   `json:"param"`
	Values []Value  `json:"values,omitempty"`
	Names  []string `json:"names,omitempty"`
}

// Spec is one declarative scenario.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Paper maps the scenario to its source-paper artefact ("§III Fig. 7").
	Paper string `json:"paper,omitempty"`

	// Model selects the scenario family from the model registry
	// (model.go): "lab" (the default when empty — every pre-model spec
	// keeps its exact canonical encoding and content hash), "mpsoc",
	// "taskburst", or "eneutral". The name folds into the canonical
	// JSON, so setting it changes the spec's content address.
	Model string `json:"model,omitempty"`

	// Params holds the model-level tunables, validated against the
	// model's documented parameter set (unknown keys are errors). The
	// lab model takes none.
	Params map[string]Value `json:"params,omitempty"`

	Workload string        `json:"workload"`
	Device   DeviceSpec    `json:"device,omitempty"`
	Storage  StorageSpec   `json:"storage"`
	Source   SourceSpec    `json:"source"`
	Runtime  RuntimeSpec   `json:"runtime,omitempty"`
	Governor *GovernorSpec `json:"governor,omitempty"`

	Duration    Value  `json:"duration"`
	Dt          Value  `json:"dt,omitempty"`
	FastForward bool   `json:"fastforward,omitempty"`
	Sweep       []Axis `json:"sweep,omitempty"`
}

// MaxSweepPoints bounds the total number of sweep-axis points one spec
// may declare (validation cost is linear in the point count, grid size
// multiplicative — both need the cap).
const MaxSweepPoints = 10_000

// MaxGridCases bounds the sweep cross product: grid expansion
// materialises one Case (with its coordinate map) per cell before
// anything runs, so an unbounded product is an allocation bomb for
// every front-end — CLI and service alike.
const MaxGridCases = 100_000

// Parse decodes and validates a spec. Unknown fields are errors, so a
// typoed key fails loudly instead of silently running the defaults, and
// so is anything but whitespace after the JSON value: "{A}{B}" is
// rejected rather than run as A under A's hash.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if off := dec.InputOffset(); len(bytes.Trim(data[off:], " \t\r\n")) > 0 {
		return nil, fmt.Errorf("scenario: unexpected data after the spec at byte %d", off)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runtimeName returns the effective runtime name ("" means none).
func (s *Spec) runtimeName() string {
	if s.Runtime.Name == "" {
		return "none"
	}
	return s.Runtime.Name
}

// errf wraps an error with the scenario's identity for actionable
// messages.
func (s *Spec) errf(format string, args ...any) error {
	return fmt.Errorf("scenario %q: %w", s.Name, fmt.Errorf(format, args...))
}

// Validate checks the model-independent invariants (duration, dt, sweep
// shape and bounds), resolves the spec's model, and dispatches the
// model-specific checks — every name resolves, every param key is known
// to its registry entry. It is called by Parse; call it directly on
// specs constructed in Go.
func (s *Spec) Validate() error {
	m, err := LookupModel(s.ModelName())
	if err != nil {
		return s.errf("%w", err)
	}
	if s.Duration <= 0 {
		return s.errf("duration must be positive (got %g s)", float64(s.Duration))
	}
	if s.Dt < 0 {
		return s.errf("dt must be non-negative (got %g s)", float64(s.Dt))
	}
	// Validation probes every axis point below, so the point count must
	// be bounded before that loop — otherwise a pathological spec buys
	// unbounded validation CPU (a concern for services parsing
	// untrusted specs; no legitimate sweep comes close).
	points, cases := 0, 1
	for _, ax := range s.Sweep {
		n := len(ax.Values) + len(ax.Names)
		points += n
		if n > 0 {
			cases *= n
		}
		// Checked per axis, so the product cannot overflow en route.
		if cases > MaxGridCases {
			return s.errf("sweep expands to more than %d cases", MaxGridCases)
		}
	}
	if points > MaxSweepPoints {
		return s.errf("sweep declares %d axis points (limit %d)", points, MaxSweepPoints)
	}
	seen := map[string]bool{}
	for i, ax := range s.Sweep {
		if ax.Param == "" {
			return s.errf("sweep[%d]: param is required", i)
		}
		canon := canonicalParam(ax.Param)
		if seen[canon] {
			return s.errf("sweep[%d]: duplicate axis %q", i, ax.Param)
		}
		seen[canon] = true
		if len(ax.Values) == 0 && len(ax.Names) == 0 {
			return s.errf("sweep[%d] (%s): values or names required", i, ax.Param)
		}
		if len(ax.Values) > 0 && len(ax.Names) > 0 {
			return s.errf("sweep[%d] (%s): values and names are mutually exclusive", i, ax.Param)
		}
		var pts []any
		for _, v := range ax.Values {
			pts = append(pts, float64(v))
		}
		for _, n := range ax.Names {
			pts = append(pts, n)
		}
		// Probe every point against a fresh copy, so each point's shape is
		// checked before any case runs — not just the last-applied one.
		for _, pt := range pts {
			probe := s.Clone()
			probe.Sweep = nil
			if err := probe.Apply(ax.Param, pt); err != nil {
				return s.errf("sweep[%d]: %w", i, err)
			}
			if err := probe.Validate(); err != nil {
				return fmt.Errorf("sweep[%d] (%s=%v): %w", i, ax.Param, pt, err)
			}
		}
	}
	return m.Validate(s)
}

// canonicalParam folds the storage-field aliases Apply accepts onto one
// spelling, so duplicate-axis detection catches "c" vs "storage.c".
func canonicalParam(p string) string {
	switch p {
	case "storage.c":
		return "c"
	case "storage.v0":
		return "v0"
	case "storage.leakr":
		return "leakr"
	}
	return p
}

// HasSweep reports whether the spec declares sweep axes.
func (s *Spec) HasSweep() bool { return len(s.Sweep) > 0 }

// Clone deep-copies the spec (param maps and sweep slice included) so a
// caller can Apply per-case values without aliasing the original —
// the expansion step design-space explorers build on.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Params = cloneParams(s.Params)
	c.Source.Params = cloneParams(s.Source.Params)
	c.Runtime.Params = cloneParams(s.Runtime.Params)
	if s.Governor != nil {
		g := *s.Governor
		g.Params = cloneParams(s.Governor.Params)
		c.Governor = &g
	}
	if s.Device.FreqIndex != nil {
		fi := *s.Device.FreqIndex
		c.Device.FreqIndex = &fi
	}
	c.Sweep = append([]Axis(nil), s.Sweep...)
	return &c
}

func cloneParams(p map[string]Value) map[string]Value {
	if p == nil {
		return nil
	}
	out := make(map[string]Value, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// toParams converts a spec param map to the registry's float form.
func toParams(p map[string]Value) registry.Params {
	if len(p) == 0 {
		return nil
	}
	out := make(registry.Params, len(p))
	for k, v := range p {
		out[k] = float64(v)
	}
	return out
}
