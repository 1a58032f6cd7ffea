package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/programs"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// fibSource writes `evm demo fib` output to a file and returns its path.
func fibSource(t *testing.T) string {
	t.Helper()
	code, src, errb := runCLI("demo", "fib")
	if code != 0 {
		t.Fatalf("demo fib: exit %d, stderr: %s", code, errb)
	}
	path := filepath.Join(t.TempDir(), "fib.s")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDemoFibHalts(t *testing.T) {
	path := fibSource(t)
	code, out, errb := runCLI("run", "-steps", "1000000", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	want := programs.Fib(24, programs.DefaultLayout()).Expected
	done := fmt.Sprintf("SYS #%d: r1=0x%04x ", programs.SysDone, want)
	if !strings.Contains(out, done) || !strings.Contains(out, "halted=true") {
		t.Errorf("want a halt with %q, got:\n%s", done, out)
	}
}

func TestAsmAndDis(t *testing.T) {
	path := fibSource(t)
	for _, cmd := range []string{"asm", "dis"} {
		if code, out, errb := runCLI(cmd, path); code != 0 || out == "" {
			t.Errorf("%s: exit %d, stdout %d bytes, stderr: %s", cmd, code, len(out), errb)
		}
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	path := fibSource(t)
	for _, args := range [][]string{
		{"nosuch"},
		{},
		// Flags go before the file: Go's flag package stops at the first
		// non-flag argument.
		{"run", path, "-steps", "1000"},
	} {
		code, out, errb := runCLI(args...)
		if code != 2 || out != "" || !strings.Contains(errb, "evm run  [-steps N] prog.s") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 and the usage", args, code, out, errb)
		}
	}
}
