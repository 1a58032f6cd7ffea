package result

import (
	"fmt"

	"repro/internal/explore"
	"repro/internal/scenario"
)

// RunExploration executes a validated exploration spec with a direct
// evaluator: every probe runs through scenario.RunModel, the same
// execution path as `ehsim -scenario`. opts.Workers, Progress and
// Cancel drive the exploration; each probe runs on one worker. The
// service wires its own evaluator (the tiered result cache) into
// explore.Run instead — and because the report text is a pure function
// of the spec and the deterministic evaluation stream, both front-ends
// render byte-identical reports.
func RunExploration(es *explore.Spec, opts scenario.RunOptions) (*explore.Report, error) {
	eval := func(sp *scenario.Spec) (explore.Outcome, error) {
		rep, err := scenario.RunModel(sp, scenario.RunOptions{Workers: 1, Cancel: opts.Cancel})
		if err != nil {
			return explore.Outcome{}, err
		}
		if len(rep.Cases) != 1 {
			return explore.Outcome{}, fmt.Errorf("result: exploration probe expanded to %d cases, want 1", len(rep.Cases))
		}
		return explore.Outcome{Metrics: rep.Cases[0].Metrics, SimSeconds: rep.SimSeconds}, nil
	}
	return explore.Run(es, explore.Options{
		Evaluate: eval,
		Workers:  opts.Workers,
		Progress: opts.Progress,
		Cancel:   opts.Cancel,
	})
}
