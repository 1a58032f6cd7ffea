package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI half of the golden-output conformance corpus: `ehsim -scenario`
// must print exactly the bytes committed under testdata/golden for every
// curated spec. internal/result's golden test pins RunModel against the
// same files (and owns the -update flag), so the CLI, the service's
// result path, and the corpus stay mutually byte-identical.

const goldenDir = "../../testdata/golden"

func TestGoldenCLIOutput(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario specs found: %v", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			code, out, errb := runCLI(t, "-scenario", path)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb)
			}
			want, err := os.ReadFile(filepath.Join(goldenDir, name+".txt"))
			if err != nil {
				t.Fatalf("missing golden file (go test ./internal/result -run TestGolden -update): %v", err)
			}
			if out != string(want) {
				t.Errorf("CLI output differs from golden\n--- want\n%s\n--- got\n%s", want, out)
			}
		})
	}
}

// TestGoldenCLITrace pins the -trace CSV for the fig7 spec: the recorder
// must not perturb the summary, and the trace bytes (spec-hash header
// included) must match the corpus.
func TestGoldenCLITrace(t *testing.T) {
	const name = "fig7-rectified-sine-hibernus"
	spec := filepath.Join("../../examples/scenarios", name+".json")
	tracePath := filepath.Join(t.TempDir(), "trace.csv")
	code, out, errb := runCLI(t, "-scenario", spec, "-trace", tracePath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	wantTxt, err := os.ReadFile(filepath.Join(goldenDir, name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The traced run prints the golden summary plus the trace-written
	// notice line.
	if !strings.HasPrefix(out, string(wantTxt)) {
		t.Errorf("traced run summary differs from golden\n--- want prefix\n%s\n--- got\n%s", wantTxt, out)
	}
	got, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, name+".trace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace CSV differs from golden (%d vs %d bytes)", len(got), len(want))
	}
}
