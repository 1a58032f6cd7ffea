package source

import (
	"strings"
	"testing"
)

// FuzzLoadTraceCSV feeds arbitrary bytes to the trace decoder, which
// reads untrusted datasets: it must never panic, and a trace it accepts
// must be well formed and safe to sample.
func FuzzLoadTraceCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data string, valueCol int, loop bool) {
		ts, err := LoadTraceCSV(strings.NewReader(data), valueCol, loop, 0)
		if err != nil {
			return
		}
		if len(ts.Times) == 0 || len(ts.Times) != len(ts.Values) {
			t.Fatalf("accepted trace has %d times and %d values", len(ts.Times), len(ts.Values))
		}
		for i := 1; i < len(ts.Times); i++ {
			if !(ts.Times[i] >= ts.Times[i-1]) {
				t.Fatalf("times not non-decreasing at %d: %v then %v", i, ts.Times[i-1], ts.Times[i])
			}
		}
		for _, at := range []float64{-1, 0, ts.Times[0], ts.Times[len(ts.Times)-1], 1e6} {
			ts.Voltage(at)
		}
	})
}
