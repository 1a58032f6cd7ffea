package result

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// update regenerates the golden corpus from the current engine:
//
//	go test ./internal/result -run TestGolden -update
//
// Run it only after verifying an intentional output change; the corpus is
// the conformance contract every optimization PR is pinned against.
var update = flag.Bool("update", false, "rewrite testdata/golden from current output")

// goldenDir is the shared corpus at the repository root: expected
// `ehsim -scenario` output for every curated spec. cmd/ehsim's golden
// test compares the CLI against the same files, so the two layers cannot
// drift from each other or from the corpus.
const goldenDir = "../../testdata/golden"

const scenarioDir = "../../examples/scenarios"

// goldenSpecs returns the curated spec paths, sorted.
func goldenSpecs(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario specs found: %v", err)
	}
	return paths
}

// TestGoldenReports byte-compares RunModel's rendered report for every
// curated spec against the committed golden corpus. A curated spec is
// also documentation: it must say what it shows and where in the paper.
func TestGoldenReports(t *testing.T) {
	for _, path := range goldenSpecs(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			sp, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if sp.Description == "" || sp.Paper == "" {
				t.Errorf("curated spec needs a description and a paper reference")
			}
			rep, err := scenario.RunModel(sp, scenario.RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, filepath.Join(goldenDir, name+".txt"), []byte(rep.Text))
		})
	}
}

// TestGoldenTrace byte-compares pinned trace captures — recording must
// not perturb the simulation, and the serialised CSV (spec-hash header
// included) must be stable. The set covers a lab run on a sine supply
// (fig7), one on a square-wave supply (the first grid case of
// fram-vs-sram, run as a single spec, since sweeps record no trace) and
// a duty-cycle model run (eneutral), so interpolated-sample cadence is
// byte-pinned on all of them.
func TestGoldenTrace(t *testing.T) {
	for _, name := range []string{
		"fig7-rectified-sine-hibernus",
		"transient-fram-vs-sram",
		"eneutral-duty-cycle",
	} {
		t.Run(name, func(t *testing.T) {
			sp, err := scenario.Load(filepath.Join(scenarioDir, name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if sp.HasSweep() {
				if sp, err = sp.At(sp.Grid().CaseAt(0)); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := scenario.RunModel(sp, scenario.RunOptions{Workers: 1, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Trace == nil {
				t.Fatal("no trace captured")
			}
			goldenCompare(t, filepath.Join(goldenDir, name+".trace.csv"), traceCSV(t, rep))

			// The summary must be identical with and without the
			// recorder: a trace is a pure observer.
			plain, err := scenario.RunModel(sp, scenario.RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Text != rep.Text {
				t.Errorf("attaching a recorder changed the report:\nplain:\n%s\ntraced:\n%s", plain.Text, rep.Text)
			}
		})
	}
}

// traceCSV renders a report's trace as every front-end serves it:
// WriteTrace with the spec-hash header. A report without a trace renders
// nothing.
func traceCSV(t *testing.T, rep *scenario.ModelReport) []byte {
	t.Helper()
	if rep.Trace == nil {
		return nil
	}
	var b bytes.Buffer
	if err := WriteTrace(&b, rep.Trace, rep.SpecHash); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// goldenCompare asserts got matches the golden file byte-for-byte,
// rewriting the file under -update.
func goldenCompare(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run with -update after verifying the change is intended)\n--- want\n%s\n--- got\n%s",
			path, want, got)
	}
}
