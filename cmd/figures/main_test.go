package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

const fig2Golden = "../../testdata/golden/figures/fig2.txt"

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestOnlyFig2(t *testing.T) {
	golden, err := os.ReadFile(fig2Golden)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := experiments.ByID("fig2")
	if !ok {
		t.Fatal("fig2 not registered")
	}

	t.Run("stdout", func(t *testing.T) {
		code, out, errb := runCLI("-only", "fig2")
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb)
		}
		want := "running fig2: " + e.Title + "\n" + string(golden) + "\n"
		if out != want {
			t.Errorf("stdout differs\n--- want\n%s\n--- got\n%s", want, out)
		}
	})

	t.Run("out-dir", func(t *testing.T) {
		dir := t.TempDir()
		if code, _, errb := runCLI("-only", "fig2", "-out", dir); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb)
		}
		got, err := os.ReadFile(filepath.Join(dir, "fig2.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("fig2.txt differs from %s\n--- want\n%s\n--- got\n%s", fig2Golden, golden, got)
		}
	})
}

func TestOnlyUnknownListsExperiments(t *testing.T) {
	code, out, errb := runCLI("-only", "nosuch")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out != "" {
		t.Errorf("unexpected stdout: %q", out)
	}
	if !strings.Contains(errb, `unknown experiment "nosuch"`) {
		t.Errorf("stderr does not name the unknown ID:\n%s", errb)
	}
	for _, e := range experiments.All() {
		if !strings.Contains(errb, e.ID) {
			t.Errorf("stderr does not list %s:\n%s", e.ID, errb)
		}
	}
}
