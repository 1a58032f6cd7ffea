// Package render is the maporder fixture: map iterations that feed
// writers, canonical JSON, or rendered slices, against the sanctioned
// collect-and-sort form.
package render

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// BadWrite streams cells straight out of a map range — the bytes land
// in a different order every run.
func BadWrite(w *bytes.Buffer, m map[string]float64) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%g\n", k, v) // want `fmt\.Fprintf inside a map iteration emits bytes in random order`
	}
}

// BadPrint is BadWrite on stdout: fmt.Print* is fmt.Fprint* to
// os.Stdout.
func BadPrint(m map[string]float64) {
	for k, v := range m {
		fmt.Printf("%s=%g\n", k, v) // want `fmt\.Printf inside a map iteration emits bytes in random order`
	}
}

// BadAppend builds a row slice from rendered strings in map order.
func BadAppend(m map[string]float64) []string {
	var rows []string
	for k, v := range m {
		rows = append(rows, fmt.Sprintf("%s=%g", k, v)) // want `appending a rendered string inside a map iteration`
	}
	return rows
}

// BadJSON feeds canonical JSON from a map range.
func BadJSON(m map[string]int) [][]byte {
	var out [][]byte
	for k := range m {
		b, _ := json.Marshal(k) // want `encoding/json Marshal inside a map iteration`
		out = append(out, b)
	}
	return out
}

// BadBuilder hits the io.Writer method form.
func BadBuilder(m map[string]int) string {
	var b bytes.Buffer
	for k := range m {
		b.WriteString(k) // want `WriteString on an io\.Writer inside a map iteration`
	}
	return b.String()
}

// Good is the fix the analyzer's message prescribes: appending the
// bare key inside the range is allowed, rendering happens over the
// sorted slice.
func Good(w *bytes.Buffer, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%g\n", k, m[k])
	}
}
