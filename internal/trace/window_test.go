package trace

import (
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
			if t, v := s.T(i), s.V(i); t >= start && t < end {
				if v < bk.Min {
					bk.Min = v
				}
				if v > bk.Max {
					bk.Max = v
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
	// Irregular spacing and a value pattern with sharp spikes, so a
	// bucket that misses a sample misses an extremum.
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
	total := s.T(s.Len() - 1)
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
		{s.T(3), s.T(4), 7},             // sub-sample-interval window
		{s.T(500), s.T(500), 10},        // to == from → nil
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

// sameBuckets compares two windows bit for bit, so NaN fills compare
// equal to themselves.
func sameBuckets(a, b []Bucket) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].N != b[i].N ||
			math.Float64bits(a[i].Min) != math.Float64bits(b[i].Min) ||
			math.Float64bits(a[i].Max) != math.Float64bits(b[i].Max) {
			return false
		}
	}
	return true
}

// Regression: Window once answered whole 256-sample blocks from a
// summary seeded with the block's first value, so a NaN there hid the
// block's other samples and a bucket spanning it read +Inf/−Inf. A
// bucket is the min/max of its own samples, and NaN values never win a
// comparison, wherever they fall.
func TestWindowSkipsNaNValues(t *testing.T) {
	s := NewSeries("nan", "V")
	for i := 0; i < 3*256+40; i++ {
		v := float64(i % 7)
		switch i {
		case 0, 256, 512, 100, 300, 301, 700:
			v = math.NaN()
		}
		s.Append(float64(i), v)
	}
	total := s.T(s.Len() - 1)
	cases := []struct {
		from, to float64
		points   int
	}{
		{0, 768, 3},    // each bucket is one block, starting at a NaN
		{-100, 868, 3}, // the interior bucket spans block 1 whole
		{0, total, 1},  // one bucket over everything
		{0, total, 2},
		{0, total, 5},
		{0, total, 64},
		{250, 520, 4},
		{0, total, 1000}, // more buckets than samples: NaN-only and empty buckets
	}
	for _, c := range cases {
		got := s.Window(c.from, c.to, c.points)
		if want := refWindow(s, c.from, c.to, c.points); !sameBuckets(got, want) {
			t.Fatalf("Window(%g, %g, %d) =\n%+v\nwant\n%+v", c.from, c.to, c.points, got, want)
		}
	}
	if got := s.Window(0, 768, 3); got[1].Min != 0 || got[1].Max != 6 {
		t.Fatalf("bucket [256, 512) = %+v, want min 0 and max 6 past its leading NaN", got[1])
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
	a, bc := r.Channel("a", "V"), r.Channel("b", "")
	for i := 0; i < 100; i++ {
		a.Record(float64(i), float64(i%10))
		bc.Record(float64(i), -float64(i))
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
	a := r.Channel("a", "")
	a.Record(2, 0)
	a.Record(7, 0)
	r.Channel("b", "").Record(1, 0)
	from, to, ok := r.TimeRange()
	if !ok || from != 1 || to != 7 {
		t.Fatalf("TimeRange = %v,%v,%v, want 1,7,true", from, to, ok)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.SetInterval(0.25)
	vcc, mode := r.Channel("vcc", "V"), r.Channel("mode", "")
	for i := 0; i < 1000; i++ {
		tm := float64(i) * 0.1
		vcc.Record(tm, math.Sin(tm)*1e-7+2.5)
		mode.Record(tm, float64(i%3))
	}
	blob := EncodeRecorder(r)
	back, err := DecodeRecorder(blob)
	if err != nil {
		t.Fatal(err)
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
		t.Fatal("CSV render (header and series order included) differs after codec round trip")
	}
	// The interval gate state must survive: a sample arriving sooner
	// than the interval after the last stored one is dropped by both.
	s := r.Series("vcc")
	last := s.T(s.Len() - 1)
	vcc.Record(last+0.01, 99)
	back.Channel("vcc", "V").Record(last+0.01, 99)
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
	r.Channel("a", "V").Record(1, 2)
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
	dup.create("a", "V").Append(1, 2)
	dup.create("b", "").Append(1, 3)
	dup.order = append(dup.order, "a")

	nanT := NewRecorder()
	s := nanT.create("a", "V")
	s.Append(1, 2)
	s.Append(2, 3)
	s.ts[1] = math.NaN()

	nanFirst := NewRecorder()
	nanFirst.create("a", "V").Append(1, 2)
	nanFirst.series["a"].ts[0] = math.NaN()

	backwards := NewRecorder()
	s = backwards.create("a", "")
	s.Append(2, 1)
	s.Append(1, 1)

	return map[string][]byte{
		"duplicate name":     EncodeRecorder(dup),
		"nan timestamp":      EncodeRecorder(nanT),
		"nan first sample":   EncodeRecorder(nanFirst),
		"decreasing samples": EncodeRecorder(backwards),
	}
}

// BenchmarkWindow1M times one windowed query over a 1.2M-sample
// series: a single pass over every sample in the window.
func BenchmarkWindow1M(b *testing.B) {
	s := synth1M()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Window(0, 1e6, 500); len(got) != 500 {
			b.Fatal("bad bucket count")
		}
	}
}

// BenchmarkWindow20k times the daemon's default /trace?points= query
// (256 buckets) over a series at its per-channel sample cap.
func BenchmarkWindow20k(b *testing.B) {
	s := synth(20_000)
	for b.Loop() {
		if got := s.Window(0, 20_000, 256); len(got) != 256 {
			b.Fatal("bad bucket count")
		}
	}
}

func synth1M() *Series { return synth(1_200_000) }

// synth is an n-sample sine on a one-second clock.
func synth(n int) *Series {
	s := NewSeries("big", "V")
	for i := 0; i < n; i++ {
		s.Append(float64(i), math.Sin(float64(i)/1000))
	}
	return s
}
