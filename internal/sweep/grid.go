package sweep

import (
	"fmt"
	"math"
	"strings"
)

// axis is one named dimension of a Grid.
type axis struct {
	name   string
	values []any
	labels []string
}

// Grid is a declarative cross product over named parameter axes. Axes
// expand row-major: the first axis added varies slowest, the last varies
// fastest, so
//
//	NewGrid().Floats("c", 10e-6, 47e-6).Axis("runtime", "hibernus", "quickrecall")
//
// yields cases (10µ,hibernus), (10µ,quickrecall), (47µ,hibernus),
// (47µ,quickrecall) — a fixed
// order the collection side can rely on when rebuilding tables.
type Grid struct {
	axes []axis
}

// NewGrid returns an empty grid.
func NewGrid() *Grid { return &Grid{} }

// Axis adds a dimension with arbitrary values (runtime constructors,
// workloads, configs...). Labels default to %v of each value.
func (g *Grid) Axis(name string, values ...any) *Grid {
	labels := make([]string, len(values))
	for i, v := range values {
		labels[i] = fmt.Sprintf("%v", v)
	}
	g.axes = append(g.axes, axis{name: name, values: values, labels: labels})
	return g
}

// Labels overrides the display labels of the most recently added axis
// (len(labels) must match that axis's value count).
func (g *Grid) Labels(labels ...string) *Grid {
	if len(g.axes) == 0 {
		panic("sweep: Labels before any Axis")
	}
	last := &g.axes[len(g.axes)-1]
	if len(labels) != len(last.values) {
		panic(fmt.Sprintf("sweep: axis %q has %d values, got %d labels",
			last.name, len(last.values), len(labels)))
	}
	last.labels = labels
	return g
}

// Floats adds a float64-valued dimension.
func (g *Grid) Floats(name string, values ...float64) *Grid {
	vs := make([]any, len(values))
	for i, v := range values {
		vs[i] = v
	}
	return g.Axis(name, vs...)
}

// Size returns the number of cases the cross product expands to. It
// panics if the product overflows int — callers handling untrusted or
// machine-generated axes should use SizeChecked instead.
func (g *Grid) Size() int {
	n, err := g.SizeChecked()
	if err != nil {
		panic("sweep: " + err.Error())
	}
	return n
}

// SizeChecked returns the number of cases the cross product expands to,
// or an error when the per-axis product overflows int. Before this
// check existed the multiplication wrapped silently, so a pathological
// grid (say five axes of 100k values) could report a small, or even
// negative, size and make every index-based consumer miscount.
func (g *Grid) SizeChecked() (int, error) {
	if len(g.axes) == 0 {
		return 0, nil
	}
	n := 1
	for _, a := range g.axes {
		k := len(a.values)
		if k != 0 && n > math.MaxInt/k {
			return 0, fmt.Errorf("grid size overflows int: %d axes, product exceeds %d cases at axis %q",
				len(g.axes), math.MaxInt, a.name)
		}
		n *= k
	}
	return n, nil
}

// Cases expands the cross product into cases, in the row-major order
// MapCases runs and returns them in.
func (g *Grid) Cases() []Case {
	n := g.Size()
	out := make([]Case, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.CaseAt(i))
	}
	return out
}

// CaseAt returns case i of the cross product without materialising the
// other cases: the row-major decode is O(axes), so a caller can stream a
// huge grid one case at a time in bounded memory. It is equivalent to
// Cases()[i] (same name and values) and panics when i is outside
// [0, Size()).
func (g *Grid) CaseAt(i int) Case {
	n := g.Size()
	if i < 0 || i >= n {
		panic(fmt.Sprintf("sweep: CaseAt(%d) out of range for a grid of %d cases", i, n))
	}
	vals := make(map[string]any, len(g.axes))
	var name strings.Builder
	rem := i
	// Row-major: decode from the fastest (last) axis upward, then
	// render the name in declaration order.
	idx := make([]int, len(g.axes))
	for a := len(g.axes) - 1; a >= 0; a-- {
		k := len(g.axes[a].values)
		idx[a] = rem % k
		rem /= k
	}
	for a, ax := range g.axes {
		vals[ax.name] = ax.values[idx[a]]
		if a > 0 {
			name.WriteByte('/')
		}
		fmt.Fprintf(&name, "%s=%s", ax.name, ax.labels[idx[a]])
	}
	return Case{Index: i, Name: name.String(), Values: vals}
}
