package experiments

import (
	"fmt"

	"repro/examples"
	"repro/internal/scenario"
)

func init() {
	register(Experiment{
		ID:    "periph",
		Title: "Peripheral state across outages: the discussion-section gap, quantified",
		Run:   runPeriph,
	})
}

// runPeriph compares naive hibernus (CPU+RAM snapshots only) against the
// peripheral-aware extension on a sensing workload whose correctness
// depends on ADC calibration registers and a radio configuration
// handshake — the exact failure mode the paper's discussion warns about.
// The testbed is the curated spec's runtime axis: hibernus, then
// hibernus-periph.
func runPeriph() (*Output, error) {
	sp, err := examples.Scenario("periph-sense-hibernus")
	if err != nil {
		return nil, err
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{})
	if err != nil {
		return nil, err
	}
	naive, aware := rep.Cases[0].Result, rep.Cases[1].Result

	row := func(name string, c scenario.ModelCase) []string {
		res := c.Result
		return []string{
			name,
			fmt.Sprintf("%d", res.Completions),
			fmt.Sprintf("%d", res.WrongResults),
			fmt.Sprintf("%d", res.TxDelivered),
			fmt.Sprintf("%d", res.TxDropped),
			fmt.Sprintf("%d", res.Stats.BrownOuts),
		}
	}
	tbl := Table{
		Title: "Calibrated sensing (ADC gain + radio handshake) across 20 outages",
		Columns: []string{"runtime", "correct results", "wrong results",
			"packets delivered", "packets dropped", "brown-outs"},
		Rows: [][]string{
			row("hibernus (CPU+RAM only)", rep.Cases[0]),
			row("hibernus + peripheral state", rep.Cases[1]),
		},
	}
	out := &Output{
		ID:          "periph",
		Description: "restoring computation without peripheral state resumes on a misconfigured sensor and a deaf radio",
		Tables:      []Table{tbl},
	}
	out.Note("paper discussion: \"work to date has primarily focused on computation, and not the plethora of peripherals\"; measured: naive restore yields %d wrong results and drops %d packets, the peripheral-aware extension yields %d wrong results and drops %d",
		naive.WrongResults, naive.TxDropped,
		aware.WrongResults, aware.TxDropped)
	if aware.WrongResults != 0 || aware.TxDropped != 0 {
		return nil, fmt.Errorf("periph: aware runtime should be clean")
	}
	return out, nil
}
