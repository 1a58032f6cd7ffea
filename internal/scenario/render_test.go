package scenario

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

// assertColumnsAligned requires the second column of every row of a
// sweep table (the lines from the one starting with "case") to start at
// the same character as the header's.
func assertColumnsAligned(t *testing.T, text string) {
	t.Helper()
	// col returns the character index of the second field of line.
	col := func(line string) int {
		name := strings.Fields(line)[0]
		rest := line[len(name):]
		return utf8.RuneCountInString(name) + utf8.RuneCountInString(rest) - utf8.RuneCountInString(strings.TrimLeft(rest, " "))
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "case ") {
			continue
		}
		want := col(line)
		for _, row := range lines[i+1:] {
			if got := col(row); got != want {
				t.Errorf("row %q: second column at %d, header's at %d\n%s", row, got, want, text)
			}
		}
		return
	}
	t.Fatalf("no table in\n%s", text)
}

// TestSweepTableLongCaseNames: a case name longer than 32 characters
// widens the case column instead of pushing its row out of line, in a
// lab sweep and in a bare cell table.
func TestSweepTableLongCaseNames(t *testing.T) {
	sp := mustParse(t, `{"name":"long-names","workload":"sieve3000","storage":{"c":"10u"},
		"source":{"name":"square"},"runtime":{"name":"hibernus"},"duration":0.02,
		"sweep":[{"param":"workload","names":["sieve3000"]},{"param":"runtime","names":["hibernus","hibernus-periph"]}]}`)
	rep, err := RunModel(sp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "workload=sieve3000/runtime=hibernus-periph ") {
		t.Fatalf("no 42-character case name in\n%s", rep.Text)
	}
	assertColumnsAligned(t, rep.Text)

	var buf bytes.Buffer
	names := []string{"short", strings.Repeat("µ", 40)}
	writeCellTable(&buf, columns(12, "a", "b"), names, [][]string{{"1", "2"}, {"3", "4"}})
	assertColumnsAligned(t, buf.String())
}
