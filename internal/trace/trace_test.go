package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func ramp(n int) *Series {
	s := NewSeries("ramp", "V")
	for i := 0; i < n; i++ {
		s.Append(float64(i), float64(i))
	}
	return s
}

func TestSeriesAppendAndAccessors(t *testing.T) {
	s := NewSeries("v", "V")
	if s.Len() != 0 {
		t.Fatal("new series should be empty")
	}
	s.Append(0, 1.5)
	s.Append(1, 2.5)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.V(0) != 1.5 || s.T(1) != 1 || s.V(1) != 2.5 {
		t.Errorf("V(0), T(1), V(1) = %v, %v, %v", s.V(0), s.T(1), s.V(1))
	}
}

func TestSummarize(t *testing.T) {
	s := NewSeries("x", "")
	for i, v := range []float64{1, 3, 2, 5, 4} {
		s.Append(float64(i+2), v)
	}
	if st, want := s.Summarize(), (Stats{Min: 1, Max: 5, TMin: 2, TMax: 6}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if st := NewSeries("e", "").Summarize(); st != (Stats{}) {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestSampleInterpolation(t *testing.T) {
	s := NewSeries("v", "V")
	s.Append(0, 0)
	s.Append(2, 4)
	s.Append(4, 0)
	tests := []struct{ t, want float64 }{
		{-1, 0}, {0, 0}, {1, 2}, {2, 4}, {3, 2}, {4, 0}, {10, 0},
	}
	for _, tt := range tests {
		if got := s.Sample(tt.t); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Sample(%g) = %g, want %g", tt.t, got, tt.want)
		}
	}
	if NewSeries("e", "").Sample(1) != 0 {
		t.Error("empty series should sample as 0")
	}
}

func TestSampleProperty(t *testing.T) {
	// Sampling exactly at a recorded timestamp returns the recorded value.
	s := ramp(50)
	f := func(iRaw uint8) bool {
		i := int(iRaw) % 50
		return s.Sample(float64(i)) == float64(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecimate(t *testing.T) {
	s := ramp(1000)
	d := s.Decimate(10)
	if d.Len() != 10 {
		t.Fatalf("decimated length = %d, want 10", d.Len())
	}
	if d.T(0) != 0 || d.T(d.Len()-1) != 999 {
		t.Error("decimation must preserve endpoints")
	}
	// Short series copy exactly.
	s2 := ramp(5)
	if got := s2.Decimate(10); got.Len() != 5 {
		t.Errorf("short decimate length = %d, want 5", got.Len())
	}
	if got := s2.Decimate(0); got.Len() != 0 {
		t.Error("n<=0 should produce empty series")
	}
}

// Regression: Decimate(1) used to divide by zero computing the stride
// (ln-1)/(n-1), turning the first index into int(NaN) — a negative
// slice index panic on any series longer than one point.
func TestDecimateToOnePoint(t *testing.T) {
	s := ramp(3)
	d := s.Decimate(1)
	if d.Len() != 1 {
		t.Fatalf("Decimate(1) length = %d, want 1", d.Len())
	}
	if d.T(0) != 2 || d.V(0) != 2 {
		t.Errorf("Decimate(1) kept (%g, %g), want the last sample (2, 2)", d.T(0), d.V(0))
	}
	if got := ramp(3).Decimate(-2); got.Len() != 0 {
		t.Errorf("Decimate(-2) length = %d, want 0", got.Len())
	}
	// A one-point series decimated to one point is an exact copy.
	if got := ramp(1).Decimate(1); got.Len() != 1 || got.T(0) != 0 || got.V(0) != 0 {
		t.Error("Decimate(1) of a single-point series must copy it")
	}
}

// csvHeader renders the recorder and returns its CSV header line.
func csvHeader(t *testing.T, r *Recorder) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(b.String(), "\n")
	return header
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	vcc := r.Channel("vcc", "V")
	vcc.Record(0, 3.3)
	vcc.Record(1, 3.2)
	r.Channel("i", "A").Record(0, 0.001)
	if got := csvHeader(t, r); got != "t,vcc(V),i(A)" {
		t.Errorf("header = %q", got)
	}
	if r.Series("vcc").Len() != 2 {
		t.Error("vcc should have 2 samples")
	}
	if r.Series("missing") != nil {
		t.Error("missing series should be nil")
	}
}

func TestRecorderInterval(t *testing.T) {
	r := NewRecorder()
	r.SetInterval(0.5)
	ch := r.Channel("x", "")
	for i := 0; i < 100; i++ {
		ch.Record(float64(i)*0.1, float64(i))
	}
	s := r.Series("x")
	// 100 samples over 9.9 s at >=0.5 s spacing: about 20.
	if n := s.Len(); n < 15 || n > 25 {
		t.Errorf("interval-limited sample count = %d, want ~20", n)
	}
	for i := 1; i < s.Len(); i++ {
		if gap := s.T(i) - s.T(i-1); gap < 0.5-1e-12 {
			t.Fatalf("samples %d and %d are %g apart, under the 0.5 interval", i-1, i, gap)
		}
	}
	// Due is Record's gate, measured from the last stored sample.
	last := s.T(s.Len() - 1)
	if ch.Due(last+0.49) || !ch.Due(last+0.6) {
		t.Fatalf("Due disagrees with the 0.5 interval after the last stored sample at %g", last)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	vcc, freq := r.Channel("vcc", "V"), r.Channel("freq", "Hz")
	vcc.Record(0, 3.0)
	vcc.Record(1, 2.5)
	freq.Record(0, 8e6)
	freq.Record(1, 4e6)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want 3:\n%s", len(lines), out)
	}
	if lines[0] != "t,vcc(V),freq(Hz)" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,3,") {
		t.Errorf("row 1 = %q", lines[1])
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRecorder().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "t" {
		t.Errorf("empty CSV = %q", buf.String())
	}
}

func TestPlot(t *testing.T) {
	s := ramp(100)
	out := Plot(s, 40, 8)
	if !strings.Contains(out, "ramp [V]") {
		t.Error("plot should include title")
	}
	if !strings.Contains(out, "*") {
		t.Error("plot should contain marks")
	}
	if got := Plot(NewSeries("e", "V"), 40, 8); !strings.Contains(got, "empty") {
		t.Error("empty plot should say so")
	}
}

func TestScatter(t *testing.T) {
	pts := []ScatterPoint{{X: 1, Y: 1}, {X: 2, Y: 4}, {X: 3, Y: 9}}
	out := Scatter("fig5", "W", "FPS", pts, 30, 10)
	if !strings.Contains(out, "fig5") || !strings.Contains(out, "+") {
		t.Errorf("scatter output missing content:\n%s", out)
	}
	if got := Scatter("none", "x", "y", nil, 30, 10); !strings.Contains(got, "no points") {
		t.Error("empty scatter should say no points")
	}
}

// Due must predict Record's decision exactly, including the first
// sample, signed zeros, infinities, NaN times and a NaN interval.
func TestChannelDueMatchesRecord(t *testing.T) {
	times := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.2, 0.5, 0.5, 0.99, 1.5, math.NaN(), 2, 3, math.Inf(1), math.Inf(1)}
	for _, iv := range []float64{0, 0.5, 1, -1, math.NaN(), math.Inf(1)} {
		r := NewRecorder()
		r.SetInterval(iv)
		ch := r.Channel("x", "")
		for i, tm := range times {
			due := ch.Due(tm)
			n := r.Series("x").Len()
			ch.Record(tm, float64(i))
			if stored := r.Series("x").Len() > n; stored != due {
				t.Fatalf("interval %g, t=%g: Due=%v but Record stored=%v", iv, tm, due, stored)
			}
		}
	}
}

func TestChannelCreatesSeriesInOrder(t *testing.T) {
	r := NewRecorder()
	r.Channel("b", "")
	a := r.Channel("a", "")
	a.Record(0, 1)
	if got := csvHeader(t, r); got != "t,b,a" {
		t.Fatalf("header %q, want t,b,a", got)
	}
	// Two channels on one series share its interval gate.
	r.SetInterval(1)
	again := r.Channel("a", "")
	a.Record(0.5, 2)     // gated: 0.5 - 0 < 1
	again.Record(0.7, 3) // gated too
	again.Record(1.2, 4) // stored
	a.Record(1.9, 5)     // gated by the sample again stored
	if n := r.Series("a").Len(); n != 2 {
		t.Fatalf("series a has %d samples, want 2", n)
	}
}
