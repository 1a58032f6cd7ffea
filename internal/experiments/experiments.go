// Package experiments contains one reproduction harness per figure and
// equation of the paper's evaluation. Each experiment runs the relevant
// simulation, produces structured tables and traces, and states the shape
// finding the paper reported so the benchmark layer (and a reader) can
// check it. cmd/figures regenerates everything; the root bench_test.go
// wraps each experiment in a testing.B target.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Table is a titled grid of rendered cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Output is everything an experiment produced.
type Output struct {
	ID          string
	Description string
	Tables      []Table
	Recorder    *trace.Recorder // time series for figure regeneration, if any
	Plots       []string        // pre-rendered ASCII charts
	Notes       []string        // shape findings, paper-vs-measured
}

// Note appends a finding.
func (o *Output) Note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// Render returns the full textual report of the experiment.
func (o *Output) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", o.ID, o.Description)
	for i := range o.Tables {
		b.WriteString(o.Tables[i].Render())
		b.WriteByte('\n')
	}
	for _, p := range o.Plots {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	for _, n := range o.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// reported returns a case's metrics once every named key is present, or
// an error naming the first key the case does not report. A metric can
// be absent by contract (track_err before a tracking window closes, v_h
// under a runtime with no hibernate threshold), and a plain map index
// would print it as 0.
func reported(m map[string]float64, keys ...string) (map[string]float64, error) {
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return nil, fmt.Errorf("metric %q not reported", k)
		}
	}
	return m, nil
}

// Experiment is a registered reproduction target.
type Experiment struct {
	ID    string // e.g. "fig7", "eq5"
	Title string // what the paper's artefact shows
	Run   func() (*Output, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
