package trace

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// refWindow is a brute-force reference decimator: per bucket, linear scan
// of every sample. Window must agree with it exactly.
func refWindow(s *Series, from, to float64, points int) []Bucket {
	if points < 1 || !(to > from) {
		return nil
	}
	width := (to - from) / float64(points)
	out := make([]Bucket, points)
	for b := 0; b < points; b++ {
		start := from + float64(b)*width
		end := from + float64(b+1)*width
		if b == points-1 {
			end = math.Nextafter(to, math.Inf(1))
		}
		bk := Bucket{T: start, Min: math.Inf(1), Max: math.Inf(-1)}
		for i := 0; i < s.Len(); i++ {
			p := s.At(i)
			if p.T >= start && p.T < end {
				if p.V < bk.Min {
					bk.Min = p.V
				}
				if p.V > bk.Max {
					bk.Max = p.V
				}
				bk.N++
			}
		}
		if bk.N == 0 {
			bk.Min, bk.Max = 0, 0
			if s.Len() > 0 {
				v := s.Sample(start)
				bk.Min, bk.Max = v, v
			}
		}
		out[b] = bk
	}
	return out
}

func TestWindowMatchesBruteForce(t *testing.T) {
	s := NewSeries("sig", "V")
	// Irregular spacing and a value pattern with sharp spikes so block
	// summaries are actually load-bearing.
	n := 10_000
	tm := 0.0
	for i := 0; i < n; i++ {
		tm += 0.5 + 0.5*math.Abs(math.Sin(float64(i)))
		v := math.Sin(float64(i) / 37)
		if i%997 == 0 {
			v = 50 // spike
		}
		s.Append(tm, v)
	}
	total := s.Last().T
	cases := []struct {
		from, to float64
		points   int
	}{
		{0, total, 100},
		{0, total, 1},
		{0, total, 1000},
		{total * 0.25, total * 0.75, 333},
		{total * 0.9, total * 1.1, 50},  // extends past the data
		{total + 10, total + 20, 10},    // entirely past the data
		{-20, -10, 10},                  // entirely before the data
		{s.At(3).T, s.At(4).T, 7},       // sub-sample-interval window
		{s.At(500).T, s.At(500).T, 10},  // to == from → nil
		{total * 0.1, total * 0.11, 64}, // narrow interior
	}
	for ci, c := range cases {
		got := s.Window(c.from, c.to, c.points)
		want := refWindow(s, c.from, c.to, c.points)
		if len(got) != len(want) {
			t.Fatalf("case %d: got %d buckets, want %d", ci, len(got), len(want))
		}
		for b := range got {
			if got[b] != want[b] {
				t.Fatalf("case %d bucket %d: got %+v, want %+v", ci, b, got[b], want[b])
			}
		}
	}
}

func TestWindowEmptySeries(t *testing.T) {
	s := NewSeries("e", "")
	got := s.Window(0, 10, 4)
	if len(got) != 4 {
		t.Fatalf("got %d buckets, want 4", len(got))
	}
	for _, bk := range got {
		if bk.N != 0 || bk.Min != 0 || bk.Max != 0 {
			t.Fatalf("empty series bucket = %+v, want zero fill", bk)
		}
	}
}

func TestWindowIncludesEndpointSample(t *testing.T) {
	s := NewSeries("x", "")
	s.Append(0, 1)
	s.Append(5, 2)
	s.Append(10, 9)
	got := s.Window(0, 10, 2)
	if got[1].Max != 9 || got[1].N != 2 {
		t.Fatalf("final bucket dropped the t==to sample: %+v", got[1])
	}
}

func TestWriteWindowCSV(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 100; i++ {
		r.Record("a", "V", float64(i), float64(i%10))
		r.Record("b", "", float64(i), -float64(i))
	}
	var b strings.Builder
	if err := r.WriteWindowCSV(&b, 0, 99, 4); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "t,a_min(V),a_max(V),b_min,b_max" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("got %d rows, want 4 + header", len(lines)-1)
	}
	if !strings.HasPrefix(lines[1], "0,0,9,") {
		t.Fatalf("row 1 = %q, want a_min=0 a_max=9", lines[1])
	}
	// An empty window renders the header alone.
	b.Reset()
	if err := r.WriteWindowCSV(&b, 5, 5, 4); err != nil {
		t.Fatal(err)
	}
	if b.String() != lines[0]+"\n" {
		t.Fatalf("empty window = %q, want the header alone", b.String())
	}
}

func TestTimeRange(t *testing.T) {
	r := NewRecorder()
	if _, _, ok := r.TimeRange(); ok {
		t.Fatal("empty recorder reported a time range")
	}
	r.Record("a", "", 2, 0)
	r.Record("a", "", 7, 0)
	r.Record("b", "", 1, 0)
	from, to, ok := r.TimeRange()
	if !ok || from != 1 || to != 7 {
		t.Fatalf("TimeRange = %v,%v,%v, want 1,7,true", from, to, ok)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.SetInterval(0.25)
	for i := 0; i < 1000; i++ {
		tm := float64(i) * 0.1
		r.Record("vcc", "V", tm, math.Sin(tm)*1e-7+2.5)
		r.Record("mode", "", tm, float64(i%3))
	}
	blob := EncodeRecorder(r)
	back, err := DecodeRecorder(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Names(), r.Names(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("names %v != %v", got, want)
	}
	if back.Interval() != r.Interval() {
		t.Fatalf("interval %v != %v", back.Interval(), r.Interval())
	}
	var a, b strings.Builder
	if err := r.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := back.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("CSV render differs after codec round trip")
	}
	// The interval gate state must survive: a sample arriving sooner
	// than the interval after the last stored one is dropped by both.
	last := r.Series("vcc").Last()
	r.Record("vcc", "V", last.T+0.01, 99)
	back.Record("vcc", "V", last.T+0.01, 99)
	if r.Series("vcc").Len() != back.Series("vcc").Len() {
		t.Fatal("interval gate state diverged after round trip")
	}
	// Window answers must be bit-identical too.
	w1 := r.Series("vcc").Window(0, 100, 50)
	w2 := back.Series("vcc").Window(0, 100, 50)
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("window bucket %d differs after round trip", i)
		}
	}
}

func TestCodecRejectsCorruptBlobs(t *testing.T) {
	r := NewRecorder()
	r.Record("a", "V", 1, 2)
	blob := EncodeRecorder(r)
	cases := map[string][]byte{
		"empty":       {},
		"truncated":   blob[:len(blob)-4],
		"bad magic":   append([]byte{9, 9, 9, 9}, blob[4:]...),
		"trailing":    append(append([]byte{}, blob...), 0xff),
		"bad version": append(append([]byte{}, blob[:4]...), append([]byte{0xff, 0xff}, blob[6:]...)...),
	}
	for name, b := range invalidBlobs() {
		cases[name] = b
	}
	for name, b := range cases {
		if _, err := DecodeRecorder(b); err == nil {
			t.Errorf("%s blob decoded without error", name)
		}
	}
}

// invalidBlobs are well-framed blobs EncodeRecorder cannot produce
// from a valid recorder: each is built by encoding a recorder whose
// internals break an invariant the decoder must enforce.
func invalidBlobs() map[string][]byte {
	// The same series name listed twice: decoding it used to overwrite
	// the first series while the column order kept both entries.
	dup := NewRecorder()
	dup.Record("a", "V", 1, 2)
	dup.Record("b", "", 1, 3)
	dup.order = append(dup.order, "a")

	nanT := NewRecorder()
	nanT.Record("a", "V", 1, 2)
	nanT.Record("a", "V", 2, 3)
	nanT.series["a"].ts[1] = math.NaN()

	nanFirst := NewRecorder()
	nanFirst.Record("a", "V", 1, 2)
	nanFirst.series["a"].ts[0] = math.NaN()

	backwards := NewRecorder()
	s := backwards.create("a", "")
	s.Append(2, 1)
	s.Append(1, 1)

	return map[string][]byte{
		"duplicate name":     EncodeRecorder(dup),
		"nan timestamp":      EncodeRecorder(nanT),
		"nan first sample":   EncodeRecorder(nanFirst),
		"decreasing samples": EncodeRecorder(backwards),
	}
}

// BenchmarkWindow1M demonstrates the acceptance criterion: windowed
// decimation over a ≥1M-sample series costs O(points + samples/blockSize),
// not O(samples). Compare with BenchmarkWindowBruteForce1M.
func BenchmarkWindow1M(b *testing.B) {
	s := synth1M()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Window(0, 1e6, 500); len(got) != 500 {
			b.Fatal("bad bucket count")
		}
	}
}

func BenchmarkWindowBruteForce1M(b *testing.B) {
	s := synth1M()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := refWindow(s, 0, 1e6, 500); len(got) != 500 {
			b.Fatal("bad bucket count")
		}
	}
}

func synth1M() *Series {
	s := NewSeries("big", "V")
	for i := 0; i < 1_200_000; i++ {
		s.Append(float64(i), math.Sin(float64(i)/1000))
	}
	return s
}
