package scenario

import (
	"fmt"
	"io"
	"strings"

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

// writeSweepTable renders the lab sweep comparison table: a header row,
// then one row per case. When any case drove a peripheral bank, the
// table gains delivered and dropped packet columns ("-" for a case
// without a bank).
func writeSweepTable(w io.Writer, names []string, results []lab.Result) {
	bank := false
	for _, res := range results {
		bank = bank || res.Bank
	}
	fmt.Fprintf(w, "%-32s %-12s %-8s %-10s %-10s %-12s %-12s",
		"case", "completions", "wrong", "snapshots", "brownouts", "energy/op", "harvested")
	if bank {
		fmt.Fprintf(w, " %-10s %-10s", "delivered", "dropped")
	}
	fmt.Fprintln(w)
	for i, res := range results {
		eop := "∞"
		if res.Completions > 0 {
			eop = units.Format(res.EnergyPerCompletion(), "J")
		}
		fmt.Fprintf(w, "%-32s %-12d %-8d %-10d %-10d %-12s %-12s",
			names[i], res.Completions, res.WrongResults,
			res.Stats.SavesStarted, res.Stats.BrownOuts, eop,
			units.Format(res.HarvestedJ, "J"))
		switch {
		case res.Bank:
			fmt.Fprintf(w, " %-10d %-10d", res.TxDelivered, res.TxDropped)
		case bank:
			fmt.Fprintf(w, " %-10s %-10s", "-", "-")
		}
		fmt.Fprintln(w)
	}
}
