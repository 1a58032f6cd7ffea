package scenario

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/lab"
	"repro/internal/units"
)

// SingleTitle renders a single-run lab scenario's report title line.
func SingleTitle(sp *Spec) string {
	return fmt.Sprintf("scenario %s: %s on %s, runtime=%s, C=%s, %gs",
		sp.Name, sp.Workload, sp.Source.Name, runtimeLabel(sp),
		units.Format(float64(sp.Storage.C), "F"), float64(sp.Duration))
}

// runtimeLabel names the spec's runtime for report headers ("" → none).
func runtimeLabel(sp *Spec) string {
	if sp.Runtime.Name == "" {
		return "none"
	}
	return sp.Runtime.Name
}

// SweepAxesLabel joins the spec's sweep axis names for the report header.
func SweepAxesLabel(sp *Spec) string {
	names := make([]string, len(sp.Sweep))
	for i, ax := range sp.Sweep {
		names[i] = ax.Param
	}
	return strings.Join(names, " × ")
}

// writeSummary renders one lab run's result block — the per-run body of
// a single-run lab report.
func writeSummary(w io.Writer, res lab.Result, duration float64) {
	fmt.Fprintf(w, "  completions:        %d (wrong: %d)\n", res.Completions, res.WrongResults)
	fmt.Fprintf(w, "  throughput:         %.2f ops/s\n", res.Throughput(duration))
	if res.Completions > 0 {
		fmt.Fprintf(w, "  energy/completion:  %s\n", units.Format(res.EnergyPerCompletion(), "J"))
		fmt.Fprintf(w, "  first completion:   %s\n", units.FormatSeconds(res.FirstCompletion))
	}
	st := res.Stats
	fmt.Fprintf(w, "  snapshots:          %d started, %d done, %d aborted\n",
		st.SavesStarted, st.SavesDone, st.SavesAborted)
	fmt.Fprintf(w, "  restores/wakes:     %d / %d\n", st.Restores, st.WakeNoRestore)
	fmt.Fprintf(w, "  power cycles:       %d brown-outs, %d cold starts\n", st.BrownOuts, st.ColdStarts)
	fmt.Fprintf(w, "  time split:         active %.2fs, sleep %.2fs, save %.2fs, off %.2fs\n",
		st.ActiveSec, st.SleepSec, st.SaveSec, st.OffSec)
	fmt.Fprintf(w, "  energy:             harvested %s, consumed %s\n",
		units.Format(res.HarvestedJ, "J"), units.Format(res.ConsumedJ, "J"))
	if res.Bank {
		fmt.Fprintf(w, "  packets:            %d delivered, %d dropped\n", res.TxDelivered, res.TxDropped)
	}
	if res.RuntimeErr != nil {
		fmt.Fprintf(w, "  guest fault:        %v\n", res.RuntimeErr)
	}
}

// caseWidth is the width of a sweep table's case column: the longest
// case name, and at least 32 characters.
func caseWidth(names []string) int {
	width := 32
	for _, n := range names {
		width = max(width, utf8.RuneCountInString(n))
	}
	return width
}

// writeCellTable renders a sweep table: a header row, then one row of
// pre-formatted cells per case, each cell padded to its column's width.
// The header stops at the widest row, and a shorter row prints "-" in
// its missing cells (the lab's packet columns, for a case without a
// peripheral bank).
func writeCellTable(w io.Writer, header []column, names []string, rows [][]string) {
	n := 0
	for _, cells := range rows {
		n = max(n, len(cells))
	}
	width := caseWidth(names)
	fmt.Fprintf(w, "%-*s", width, "case")
	for _, col := range header[:n] {
		fmt.Fprintf(w, " %-*s", col.width, col.title)
	}
	fmt.Fprintln(w)
	for i, cells := range rows {
		fmt.Fprintf(w, "%-*s", width, names[i])
		for j, col := range header[:n] {
			c := "-"
			if j < len(cells) {
				c = cells[j]
			}
			fmt.Fprintf(w, " %-*s", col.width, c)
		}
		fmt.Fprintln(w)
	}
}
