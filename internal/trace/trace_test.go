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
	if (s.Last() != Point{}) {
		t.Fatal("empty Last should be zero Point")
	}
	s.Append(0, 1.5)
	s.Append(1, 2.5)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.At(1).V != 2.5 || s.Last().T != 1 {
		t.Error("accessors returned wrong sample")
	}
	if s.V(0) != 1.5 || s.T(1) != 1 {
		t.Errorf("V(0), T(1) = %v, %v", s.V(0), s.T(1))
	}
}

func TestSummarize(t *testing.T) {
	s := NewSeries("x", "")
	for i, v := range []float64{1, 3, 2, 5, 4} {
		s.Append(float64(i), v)
	}
	st := s.Summarize()
	if st.Min != 1 || st.Max != 5 {
		t.Errorf("min/max = %g/%g", st.Min, st.Max)
	}
	if st.Mean != 3 {
		t.Errorf("mean = %g, want 3", st.Mean)
	}
	if st.MaxAt != 3 {
		t.Errorf("MaxAt = %g, want 3", st.MaxAt)
	}
	if st.First != 1 || st.Last != 4 {
		t.Errorf("first/last = %g/%g", st.First, st.Last)
	}
	// Trapezoid integral of the polyline (1,3,2,5,4) with dt=1:
	// (1+3)/2 + (3+2)/2 + (2+5)/2 + (5+4)/2 = 2+2.5+3.5+4.5 = 12.5
	if math.Abs(st.Integral-12.5) > 1e-12 {
		t.Errorf("integral = %g, want 12.5", st.Integral)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := NewSeries("e", "").Summarize()
	if st.N != 0 || st.Min != 0 || st.Max != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestSummarizeIntegralConstant(t *testing.T) {
	// Integral of a constant 2.0 over [0, 10] must be 20.
	s := NewSeries("c", "")
	for i := 0; i <= 10; i++ {
		s.Append(float64(i), 2)
	}
	if got := s.Summarize().Integral; math.Abs(got-20) > 1e-12 {
		t.Errorf("integral = %g, want 20", got)
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
	if d.At(0).T != 0 || d.Last().T != 999 {
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
	if got := d.At(0); got != s.Last() {
		t.Errorf("Decimate(1) kept %+v, want the last sample %+v", got, s.Last())
	}
	if got := ramp(3).Decimate(-2); got.Len() != 0 {
		t.Errorf("Decimate(-2) length = %d, want 0", got.Len())
	}
	// A one-point series decimated to one point is an exact copy.
	if got := ramp(1).Decimate(1); got.Len() != 1 || got.At(0) != ramp(1).At(0) {
		t.Error("Decimate(1) of a single-point series must copy it")
	}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Record("vcc", "V", 0, 3.3)
	r.Record("vcc", "V", 1, 3.2)
	r.Record("i", "A", 0, 0.001)
	if got := r.Names(); len(got) != 2 || got[0] != "vcc" || got[1] != "i" {
		t.Errorf("Names = %v", got)
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
	for i := 0; i < 100; i++ {
		r.Record("x", "", float64(i)*0.1, float64(i))
	}
	n := r.Series("x").Len()
	// 100 samples over 9.9 s at >=0.5 s spacing: about 20.
	if n < 15 || n > 25 {
		t.Errorf("interval-limited sample count = %d, want ~20", n)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Record("vcc", "V", 0, 3.0)
	r.Record("vcc", "V", 1, 2.5)
	r.Record("freq", "Hz", 0, 8e6)
	r.Record("freq", "Hz", 1, 4e6)
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

func TestChannelMatchesRecord(t *testing.T) {
	// Two recorders fed the same samples — one through Record, one
	// through pre-resolved channels — must store identical series.
	a := NewRecorder()
	b := NewRecorder()
	a.SetInterval(0.5)
	b.SetInterval(0.5)
	ch := b.Channel("x", "V")
	for i := 0; i < 100; i++ {
		ts := float64(i) * 0.13
		a.Record("x", "V", ts, float64(i))
		ch.Record(ts, float64(i))
	}
	sa, sb := a.Series("x"), b.Series("x")
	if sa.Len() != sb.Len() {
		t.Fatalf("lengths differ: %d vs %d", sa.Len(), sb.Len())
	}
	for i := 0; i < sa.Len(); i++ {
		if sa.At(i) != sb.At(i) {
			t.Fatalf("sample %d differs: %+v vs %+v", i, sa.At(i), sb.At(i))
		}
	}
	// Due is Record's gate, measured from the last stored sample.
	last := sb.At(sb.Len() - 1).T
	if ch.Due(last+0.49) || !ch.Due(last+0.6) {
		t.Fatalf("Due disagrees with the 0.5 interval after the last stored sample at %g", last)
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
	r.Record("a", "", 0, 1)
	got := r.Names()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("order %v, want [b a]", got)
	}
	// Mixing Channel and Record on one series shares the interval gate.
	r.SetInterval(1)
	ch := r.Channel("a", "")
	r.Record("a", "", 0.5, 2) // gated: 0.5 - 0 < 1
	ch.Record(0.7, 3)         // gated too
	ch.Record(1.2, 4)         // stored
	if n := r.Series("a").Len(); n != 2 {
		t.Fatalf("series a has %d samples, want 2", n)
	}
}
