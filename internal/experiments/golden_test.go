package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the figure goldens from the current experiments:
//
//	go test ./internal/experiments -run TestGoldenFigures -update
//
// Run it only after verifying an intentional output change.
var update = flag.Bool("update", false, "rewrite testdata/golden/figures from current output")

// figureGoldenDir holds one rendered report per registered experiment —
// exactly what `figures -only <ID>` prints for it.
const figureGoldenDir = "../../testdata/golden/figures"

// TestGoldenFigures byte-compares every experiment's rendered report
// against its committed golden.
func TestGoldenFigures(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			out, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(figureGoldenDir, e.ID+".txt")
			got := []byte(out.Render())
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
		})
	}
}
