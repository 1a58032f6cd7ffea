package result

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/explore"
	"repro/internal/mpsoc"
	"repro/internal/scenario"
)

// TestMpsocRunsShareTableConcurrently runs the curated mpsoc scenario,
// traced, and the fig5-pareto exploration side by side. Every run reads
// the one process-wide XU4 table; each must render exactly what it
// renders alone, and the shared frontier must come out unmodified. CI
// runs it under -race, which also flags any write to the shared table.
func TestMpsocRunsShareTableConcurrently(t *testing.T) {
	frontier := append([]mpsoc.OperatingPoint(nil), mpsoc.XU4Table().Frontier...)
	runScenario := func() (string, error) {
		sp, err := scenario.Load(filepath.Join(scenarioDir, "mpsoc-fig5-solar.json"))
		if err != nil {
			return "", err
		}
		rep, err := scenario.RunModel(sp, scenario.RunOptions{Trace: true})
		if err != nil {
			return "", err
		}
		return rep.Text, nil
	}
	runExploration := func() (string, error) {
		es, err := explore.Load(filepath.Join(explorationDir, "fig5-pareto.json"))
		if err != nil {
			return "", err
		}
		rep, err := RunExploration(es, scenario.RunOptions{Workers: 2})
		if err != nil {
			return "", err
		}
		return rep.Text, nil
	}
	runs := []func() (string, error){runScenario, runExploration, runScenario, runExploration}

	want := make([]string, len(runs))
	for i, run := range runs[:2] {
		text, err := run()
		if err != nil {
			t.Fatal(err)
		}
		want[i], want[i+2] = text, text
	}
	got := make([]string, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run()
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("concurrent run %d differs from its sequential run:\n--- sequential\n%s\n--- concurrent\n%s", i, want[i], got[i])
		}
	}
	if !reflect.DeepEqual(mpsoc.XU4Table().Frontier, frontier) {
		t.Error("the shared XU4 frontier changed during the runs")
	}
}
