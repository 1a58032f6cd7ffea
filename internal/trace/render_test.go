package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The reference renderer below is the formatted, binary-search CSV path
// WriteCSV and WriteWindowCSV replaced, kept verbatim as the oracle the
// linear renderer is pinned against byte for byte.

func refWriteCSV(r *Recorder, w io.Writer) error {
	if len(r.order) == 0 {
		_, err := fmt.Fprintln(w, "t")
		return err
	}
	header := []string{"t"}
	for _, name := range r.order {
		s := r.series[name]
		col := name
		if s.Unit != "" {
			col = fmt.Sprintf("%s(%s)", name, s.Unit)
		}
		header = append(header, col)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	base := r.series[r.order[0]]
	for i := 0; i < base.Len(); i++ {
		t := base.ts[i]
		row := make([]string, 0, len(r.order)+1)
		row = append(row, refFormatFloat(t))
		for _, name := range r.order {
			row = append(row, refFormatFloat(refSample(r.series[name], t)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func refWriteWindowCSV(r *Recorder, w io.Writer, from, to float64, points int) error {
	if len(r.order) == 0 {
		_, err := fmt.Fprintln(w, "t")
		return err
	}
	header := []string{"t"}
	for _, name := range r.order {
		s := r.series[name]
		unit := ""
		if s.Unit != "" {
			unit = "(" + s.Unit + ")"
		}
		header = append(header, name+"_min"+unit, name+"_max"+unit)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	windows := make([][]Bucket, len(r.order))
	for i, name := range r.order {
		windows[i] = r.series[name].Window(from, to, points)
	}
	for b := 0; b < points; b++ {
		row := make([]string, 0, 2*len(r.order)+1)
		row = append(row, refFormatFloat(windows[0][b].T))
		for i := range r.order {
			bk := windows[i][b]
			row = append(row, refFormatFloat(bk.Min), refFormatFloat(bk.Max))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func refSample(s *Series, t float64) float64 {
	n := len(s.vs)
	if n == 0 {
		return 0
	}
	if t <= s.ts[0] {
		return s.vs[0]
	}
	if t >= s.ts[n-1] {
		return s.vs[n-1]
	}
	// Binary search for the bracketing interval.
	i := sort.Search(n, func(i int) bool { return s.ts[i] > t })
	a, b := s.ts[i-1], s.ts[i]
	if b == a {
		return s.vs[i]
	}
	frac := (t - a) / (b - a)
	return s.vs[i-1] + frac*(s.vs[i]-s.vs[i-1])
}

func refFormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.9g", v)
}

// specialFloats are the values whose formatting or interpolation is
// easiest to get wrong: signed zeros, infinities, NaN, the integers on
// either side of the 1e15 'f'/'g' switch, and subnormals.
var specialFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 2, -(1e15 + 2),
	999999999999999.9, -999999999999999.9, 1e15 - 0.5,
	5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
	1, -1, 0.5, 1e-9, 123456789.123456789, 4294967296, 1e21, 1e300,
}

// randValue draws a value: a special, a random bit pattern, an integer
// near ±1e15, or a plain magnitude-spread float.
func randValue(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return specialFloats[rng.Intn(len(specialFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64())
	case 2:
		return float64(rng.Int63n(2000)-1000) + math.Copysign(1e15, rng.Float64()-0.5)
	case 3:
		return float64(rng.Intn(100) - 50)
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
	}
}

// randClock draws n non-decreasing, NaN-free timestamps: duplicates,
// subnormal and near-1e15 origins, and occasionally infinite endpoints.
func randClock(rng *rand.Rand, n int) []float64 {
	origins := []float64{0, math.Copysign(0, -1), 1e-310, 1e15 - 3, -1e15, -2.5, 1e6}
	t := origins[rng.Intn(len(origins))]
	steps := []float64{1e-3, 1e-6, 0.25, 1, 1e-320, 7}
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(5) != 0 {
			t += steps[rng.Intn(len(steps))] * (1 + rng.Float64())
		}
		ts = append(ts, t)
	}
	if n > 1 && rng.Intn(10) == 0 {
		ts[0] = math.Inf(-1)
	}
	if n > 1 && rng.Intn(10) == 0 {
		ts[n-1] = math.Inf(1)
	}
	return ts
}

// randRecorder builds a recorder of 1–4 series: the first on a random
// clock, the rest on the same clock, an offset copy, a sparser subset,
// their own clock, or empty/single-sample.
func randRecorder(rng *rand.Rand) *Recorder {
	r := NewRecorder()
	base := randClock(rng, rng.Intn(60))
	if rng.Intn(8) == 0 {
		base = base[:min(len(base), rng.Intn(2))] // empty or single-sample base
	}
	ns := 1 + rng.Intn(4)
	for k := 0; k < ns; k++ {
		var ts []float64
		switch mode := rng.Intn(6); {
		case k == 0 || mode == 0:
			ts = base
		case mode == 1:
			off := []float64{1e-4, -0.5, 3, 1e-12}[rng.Intn(4)]
			for _, t := range base {
				ts = append(ts, t+off)
			}
		case mode == 2:
			stride := 2 + rng.Intn(5)
			for i := 0; i < len(base); i += stride {
				ts = append(ts, base[i])
			}
		case mode == 3:
			ts = randClock(rng, rng.Intn(80))
		case mode == 4:
			ts = randClock(rng, rng.Intn(2))
		default:
			ts = nil
		}
		unit := []string{"", "V", "MHz"}[rng.Intn(3)]
		s := r.create(fmt.Sprintf("s%d", k), unit)
		for _, t := range ts {
			s.Append(t, randValue(rng))
		}
	}
	return r
}

// randWindow picks a finite, non-empty query window around the
// recorder's samples.
func randWindow(rng *rand.Rand, r *Recorder) (from, to float64, points int) {
	var finite []float64
	for _, name := range r.order {
		for _, t := range r.series[name].ts {
			if !math.IsInf(t, 0) {
				finite = append(finite, t)
			}
		}
	}
	from, to = 0, 1
	if len(finite) > 0 {
		a, b := finite[rng.Intn(len(finite))], finite[rng.Intn(len(finite))]
		if a > b {
			a, b = b, a
		}
		if b > a {
			from, to = a, b
		} else {
			from, to = a-1, a+1
		}
	}
	if rng.Intn(4) == 0 {
		from -= rng.Float64()
		to += rng.Float64()
	}
	return from, to, 1 + rng.Intn(40)
}

// TestWriteCSVMatchesReference pins WriteCSV and WriteWindowCSV byte for
// byte to the reference renderer over seeded random recorders.
func TestWriteCSVMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randRecorder(rng)

		var got, want bytes.Buffer
		if err := r.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := refWriteCSV(r, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: WriteCSV differs from reference\n--- want\n%s\n--- got\n%s", seed, want.Bytes(), got.Bytes())
		}

		from, to, points := randWindow(rng, r)
		got.Reset()
		want.Reset()
		if err := r.WriteWindowCSV(&got, from, to, points); err != nil {
			t.Fatal(err)
		}
		if err := refWriteWindowCSV(r, &want, from, to, points); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: WriteWindowCSV(%g, %g, %d) differs from reference\n--- want\n%s\n--- got\n%s",
				seed, from, to, points, want.Bytes(), got.Bytes())
		}
	}
}

// benchRecorder is a daemon-sized trace: three channels on one clock,
// 20k samples — a voltage, an integer event count and a mode.
func benchRecorder() *Recorder {
	r := NewRecorder()
	v, n, m := r.Channel("vcap", "V"), r.Channel("events", ""), r.Channel("mode", "")
	for i := 0; i < 20_000; i++ {
		t := float64(i) * 6e-3
		v.Record(t, 3.6+1.8*math.Sin(t))
		n.Record(t, float64(i/50))
		m.Record(t, float64(i%3))
	}
	return r
}

func BenchmarkWriteCSV(b *testing.B) {
	r := benchRecorder()
	for b.Loop() {
		if err := r.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteCSVReference(b *testing.B) {
	r := benchRecorder()
	for b.Loop() {
		if err := refWriteCSV(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
