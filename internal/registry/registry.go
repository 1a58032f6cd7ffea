// Package registry is the shared name-resolution contract behind the
// declarative scenario subsystem: an ordered name→entry table plus the
// parameter plumbing (documented defaults, unknown-key detection) that
// every constructor-by-name registry in the repo — sources, workloads,
// transient runtimes, power-neutral governors — builds on.
//
// The contract the domain registries implement with these pieces:
//
//   - every builtin is registered under a stable lower-case name;
//   - Names() enumerates them sorted, so discovery output (ehsim -list)
//     and error messages are deterministic;
//   - resolving an unknown name fails with the full list of known names;
//   - entries declare their tunable parameters as ParamDocs, so a caller
//     passing an unknown parameter key gets an actionable error instead
//     of a silently ignored field.
package registry

import (
	"fmt"
	"sort"
	"strings"
)

// Table is an ordered name→entry map for one kind of registrable thing
// ("source", "workload", ...). The zero value is not usable; construct
// with New.
type Table[E any] struct {
	kind  string
	names []string // kept sorted
	m     map[string]E
}

// New returns an empty table whose error messages name the given kind.
func New[E any](kind string) *Table[E] {
	return &Table[E]{kind: kind, m: make(map[string]E)}
}

// Register adds an entry under name. Registering the same name twice is a
// programming error and panics.
func (t *Table[E]) Register(name string, e E) {
	if _, dup := t.m[name]; dup {
		panic(fmt.Sprintf("registry: duplicate %s %q", t.kind, name))
	}
	t.m[name] = e
	i := sort.SearchStrings(t.names, name)
	t.names = append(t.names, "")
	copy(t.names[i+1:], t.names[i:])
	t.names[i] = name
}

// Names returns every registered name, sorted.
func (t *Table[E]) Names() []string {
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}

// Get resolves name, or returns an error listing every known name.
func (t *Table[E]) Get(name string) (E, error) {
	e, ok := t.m[name]
	if !ok {
		var zero E
		return zero, fmt.Errorf("unknown %s %q (known: %s)",
			t.kind, name, strings.Join(t.names, ", "))
	}
	return e, nil
}

// Params carries the named float tunables handed to a registry
// constructor. All values are base SI units, matching the repo-wide
// convention in package units.
type Params map[string]float64

// ParamDoc documents one tunable an entry accepts: its key, the value
// used when the caller omits it, and a one-line description for
// discovery output.
type ParamDoc struct {
	Key     string
	Default float64
	Desc    string
}

// Resolve validates p against docs and returns a complete parameter set:
// every documented key is present, caller values override defaults, and
// any key the docs don't declare is an error naming the valid keys.
func Resolve(kind, name string, docs []ParamDoc, p Params) (Params, error) {
	out := make(Params, len(docs))
	for _, d := range docs {
		out[d.Key] = d.Default
	}
	for k, v := range p {
		if _, ok := out[k]; !ok {
			keys := make([]string, len(docs))
			for i, d := range docs {
				keys[i] = d.Key
			}
			sort.Strings(keys)
			valid := "none"
			if len(keys) > 0 {
				valid = strings.Join(keys, ", ")
			}
			return nil, fmt.Errorf("%s %q: unknown param %q (valid: %s)",
				kind, name, k, valid)
		}
		out[k] = v
	}
	return out, nil
}
