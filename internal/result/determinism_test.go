package result

import (
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// TestDeterminismAcrossWorkersAndFastForward pins the engine's
// determinism contract on the fig7 single run and the fram-vs-sram
// sweep: the rendered report must be byte-identical across worker counts
// (the sweep engine's index-ordered collection) and with the analytic
// fast-forward on (whose float-level deviations must stay below report
// rendering precision on these scenarios). CI runs this under -race, so
// it also guards the sweep engine's memory discipline.
func TestDeterminismAcrossWorkersAndFastForward(t *testing.T) {
	for _, name := range []string{
		"fig7-rectified-sine-hibernus",
		"transient-fram-vs-sram",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(scenarioDir, name+".json")
			render := func(workers int, ff bool) string {
				t.Helper()
				sp, err := scenario.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				sp.FastForward = ff
				rep, err := scenario.RunModel(sp, scenario.RunOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return rep.Text
			}
			serial := render(1, false)
			if parallel := render(8, false); parallel != serial {
				t.Errorf("workers=8 diverged from workers=1:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
			}
			if ff := render(1, true); ff != serial {
				t.Errorf("fast-forward diverged from full integration:\n--- full\n%s\n--- ff\n%s", serial, ff)
			}
		})
	}
}
