package result

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/scenario"
)

const explorationDir = "../../examples/explorations"

// explorationSpecs returns the curated exploration spec paths, sorted.
func explorationSpecs(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(explorationDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no exploration specs found: %v", err)
	}
	return paths
}

// TestGoldenExplorations byte-compares RunExploration's rendered report
// for every curated exploration against the committed golden corpus —
// the same conformance pinning the scenario corpus provides, extended
// to the explorer. The service's /v1/explorations endpoint serves the
// same bytes by construction (its evaluator only changes where metrics
// come from, never what the report says). Each curated exploration must
// also say what it answers and, on its base, where in the paper.
func TestGoldenExplorations(t *testing.T) {
	for _, path := range explorationSpecs(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			es, err := explore.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if es.Description == "" || es.Base.Paper == "" {
				t.Errorf("curated exploration needs a description and a base paper reference")
			}
			rep, err := RunExploration(es, scenario.RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, filepath.Join(goldenDir, "exploration-"+name+".txt"), []byte(rep.Text))
		})
	}
}

// TestExplorationDeterministicAcrossWorkers pins the worker-count
// independence the byte-identity contract rests on: the same
// exploration at Workers 1 and 8 must render identical bytes and keep
// the same aggregates. Run under -race in CI, this also shakes out
// data races in the batch evaluation path.
func TestExplorationDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range []string{"fig5-pareto", "eq4-capacitor-topk"} {
		t.Run(name, func(t *testing.T) {
			es, err := explore.Load(filepath.Join(explorationDir, name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			seq, err := RunExploration(es, scenario.RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := RunExploration(es, scenario.RunOptions{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Text != par.Text {
				t.Errorf("report differs across worker counts:\n--- workers=1\n%s\n--- workers=8\n%s", seq.Text, par.Text)
			}
			if len(seq.Aggregates) != len(par.Aggregates) {
				t.Fatalf("aggregate counts differ: %d vs %d", len(seq.Aggregates), len(par.Aggregates))
			}
			for i := range seq.Aggregates {
				a, b := seq.Aggregates[i], par.Aggregates[i]
				if len(a) != len(b) {
					t.Fatalf("aggregate %d sizes differ: %d vs %d", i, len(a), len(b))
				}
				for j := range a {
					if a[j].Case != b[j].Case || a[j].Seq != b[j].Seq {
						t.Errorf("aggregate %d entry %d differs: %+v vs %+v", i, j, a[j], b[j])
					}
				}
			}
		})
	}
}

// TestEq5BisectionConvergence pins the eq. 5 crossover hunt: the
// bisection must land on the FRAM-vs-SRAM break-even on-time within
// tolerance, and do it in no more than half the simulations the
// equivalent dense grid would burn — the exploration subsystem's
// headline acceptance criterion.
func TestEq5BisectionConvergence(t *testing.T) {
	es, err := explore.Load(filepath.Join(explorationDir, "eq5-crossover.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunExploration(es, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Crossover
	if c == nil {
		t.Fatal("bisection produced no crossover")
	}
	st := &es.Strategy
	lo, hi, tol := float64(*st.Lo), float64(*st.Hi), float64(*st.Tolerance)
	if c.Hi-c.Lo > tol {
		t.Errorf("final bracket [%g, %g] wider than tolerance %g", c.Lo, c.Hi, tol)
	}
	if c.Value < lo || c.Value > hi {
		t.Errorf("crossover %g escaped the search bracket [%g, %g]", c.Value, lo, hi)
	}
	// The bracket ends must straddle the sign change (or sit on it).
	if c.DeltaLo*c.DeltaHi > 0 {
		t.Errorf("bracket ends do not straddle zero: Δ(lo)=%g, Δ(hi)=%g", c.DeltaLo, c.DeltaHi)
	}
	dense := 2 * (int(math.Floor((hi-lo)/tol)) + 1)
	if rep.Evaluations > dense/2 {
		t.Errorf("bisection used %d evaluations; the dense grid equivalent is %d, budget is half that",
			rep.Evaluations, dense)
	}
}

// TestRefineSharesNonDyadicGridPoints runs eq4-margin-refine on a box
// whose grid step (0.1) is not a dyadic rational: a point that two
// rounds share must still be one memo key, simulated and printed once.
func TestRefineSharesNonDyadicGridPoints(t *testing.T) {
	es, err := explore.Load(filepath.Join(explorationDir, "eq4-margin-refine.json"))
	if err != nil {
		t.Fatal(err)
	}
	es.Strategy.Refine[0].Lo = 0.85
	es.Aggregators[0].K = 15 // print every evaluated point
	if err := es.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := RunExploration(es, scenario.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evaluations != 9 || rep.Memoized != 6 {
		t.Errorf("evaluations/memoized = %d/%d, want 9/6", rep.Evaluations, rep.Memoized)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(rep.Text, "\n") {
		f := strings.Fields(line) // a topk row: rank, case, value
		if len(f) != 3 || !strings.HasPrefix(f[1], "runtime.margin=") {
			continue
		}
		if seen[f[1]] {
			t.Errorf("label %s printed twice:\n%s", f[1], rep.Text)
		}
		seen[f[1]] = true
	}
	if len(seen) == 0 {
		t.Fatalf("no case labels in the report:\n%s", rep.Text)
	}
}
