package trace

import "testing"

// Regression: the rounded stride walk in Decimate could emit the same
// source index twice when n is close to len, duplicating timestamps in
// served CSV. Indices must be strictly increasing for every n, and the
// first/last samples preserved.
func TestDecimateIndicesStrictlyIncreasing(t *testing.T) {
	for _, ln := range []int{2, 3, 5, 17, 100, 1000} {
		s := NewSeries("s", "")
		for i := 0; i < ln; i++ {
			s.Append(float64(i), float64(i)*2)
		}
		for n := 2; n <= ln; n++ {
			d := s.Decimate(n)
			if d.Len() != n {
				t.Fatalf("len=%d n=%d: got %d points", ln, n, d.Len())
			}
			if d.T(0) != 0 {
				t.Fatalf("len=%d n=%d: first sample at t=%g, want t=0", ln, n, d.T(0))
			}
			if last := d.T(d.Len() - 1); last != float64(ln-1) {
				t.Fatalf("len=%d n=%d: last sample at t=%g, want t=%d", ln, n, last, ln-1)
			}
			for i := 1; i < d.Len(); i++ {
				if d.T(i) <= d.T(i-1) {
					t.Fatalf("len=%d n=%d: duplicate/regressing timestamp at %d: %g then %g",
						ln, n, i, d.T(i-1), d.T(i))
				}
			}
		}
	}
}

func TestDecimateEdgeCounts(t *testing.T) {
	s := NewSeries("s", "")
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i))
	}
	if d := s.Decimate(0); d.Len() != 0 {
		t.Fatalf("n=0: got %d points", d.Len())
	}
	if d := s.Decimate(-3); d.Len() != 0 {
		t.Fatalf("n<0: got %d points", d.Len())
	}
	if d := s.Decimate(1); d.Len() != 1 || d.T(0) != 9 {
		t.Fatalf("n=1: got %d points, want the last sample", d.Len())
	}
	if d := s.Decimate(25); d.Len() != 10 {
		t.Fatalf("n>len: got %d points, want exact copy", d.Len())
	}
}

// Regression: interpolated lookup at or before the first sample must
// clamp to the endpoints instead of indexing before the columns.
func TestSampleClampsToEndpoints(t *testing.T) {
	s := NewSeries("s", "V")
	s.Append(10, 1)
	s.Append(20, 3)
	s.Append(30, -5)
	cases := []struct {
		name string
		t    float64
		want float64
	}{
		{"before-first", 5, 1},
		{"well-before-first", -1e9, 1},
		{"exactly-first", 10, 1},
		{"interior", 15, 2},
		{"exactly-interior", 20, 3},
		{"exactly-last", 30, -5},
		{"after-last", 31, -5},
		{"well-after-last", 1e12, -5},
	}
	for _, c := range cases {
		if got := s.Sample(c.t); got != c.want {
			t.Errorf("%s: Sample(%g) = %g, want %g", c.name, c.t, got, c.want)
		}
	}
}

func TestSampleSinglePointAndEmpty(t *testing.T) {
	empty := NewSeries("e", "")
	if got := empty.Sample(3); got != 0 {
		t.Fatalf("empty series Sample = %g, want 0", got)
	}
	one := NewSeries("o", "")
	one.Append(7, 42)
	for _, q := range []float64{6, 7, 8} {
		if got := one.Sample(q); got != 42 {
			t.Fatalf("single-point Sample(%g) = %g, want 42", q, got)
		}
	}
}
