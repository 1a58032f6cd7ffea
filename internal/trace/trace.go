// Package trace records time series produced by the simulator and renders
// them as CSV files, terminal sparklines, or multi-row ASCII plots.
//
// Every figure reproduced from the paper is ultimately a trace (or a set of
// traces) captured by this package; the experiment harness serialises them
// so that downstream plotting tools can regenerate the published artwork.
//
// Storage is columnar: a Series keeps its timestamps and values in two
// parallel []float64 arrays, so appending a sample is two slice appends,
// and a binary blob (EncodeRecorder) is the two columns verbatim.
package trace

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
)

// Series is an append-only time series with a name and unit annotation.
// Samples live in parallel time/value columns; timestamps must be
// appended in non-decreasing order (every producer in the simulator
// samples a forward-moving clock).
type Series struct {
	Name string
	Unit string

	ts, vs []float64

	// lastT is the timestamp of the last sample stored through a
	// Channel, the state behind the recorder's minimum-interval
	// decimation.
	lastT float64
}

// NewSeries returns an empty named series.
func NewSeries(name, unit string) *Series {
	return &Series{Name: name, Unit: unit, lastT: math.Inf(-1)}
}

// Append adds a sample at time t.
func (s *Series) Append(t, v float64) {
	s.ts = append(s.ts, t)
	s.vs = append(s.vs, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.vs) }

// T returns the i-th sample's timestamp.
func (s *Series) T(i int) float64 { return s.ts[i] }

// V returns the i-th sample's value.
func (s *Series) V(i int) float64 { return s.vs[i] }

// Stats summarises a series: the extreme values and the time range
// they were drawn from.
type Stats struct {
	Min, Max   float64
	TMin, TMax float64 // time range covered
}

// Summarize computes the series' extrema and time range; an empty
// series summarises to zeros.
func (s *Series) Summarize() Stats {
	n := len(s.vs)
	if n == 0 {
		return Stats{}
	}
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1), TMin: s.ts[0], TMax: s.ts[n-1]}
	for _, v := range s.vs {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	return st
}

// Sample returns the linearly interpolated value at time t. Outside the
// covered range it clamps to the first/last sample — a query at or
// before the first timestamp returns the first value, at or after the
// last timestamp the last value — so lookups never index outside the
// columns. An empty series returns 0.
func (s *Series) Sample(t float64) float64 {
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
	return s.lerp(sort.Search(n, func(i int) bool { return s.ts[i] > t }), t)
}

// lerp interpolates between samples i-1 and i at time t, where i is the
// first index whose timestamp exceeds t. It is the one interpolation
// formula Sample and the CSV renderer's cursor share, so both produce
// the same bits.
func (s *Series) lerp(i int, t float64) float64 {
	a, b := s.ts[i-1], s.ts[i]
	if b == a {
		return s.vs[i]
	}
	frac := (t - a) / (b - a)
	return s.vs[i-1] + frac*(s.vs[i]-s.vs[i-1])
}

// Decimate returns a copy of the series keeping at most n points, chosen by
// stride. It preserves the first and last samples, and the chosen source
// indices are strictly increasing — the rounded stride walk can land two
// output slots on the same source index when n approaches the length, and
// a duplicated index would emit duplicate timestamps into served CSV. If
// the series already has ≤ n points, the copy is exact; n == 1 keeps the
// last sample, and n ≤ 0 yields an empty copy.
func (s *Series) Decimate(n int) *Series {
	out := NewSeries(s.Name, s.Unit)
	ln := len(s.vs)
	if n <= 0 || ln == 0 {
		return out
	}
	if ln <= n {
		for i := 0; i < ln; i++ {
			out.Append(s.ts[i], s.vs[i])
		}
		return out
	}
	if n == 1 {
		// The stride formula below needs n ≥ 2 (it divides by n-1); a
		// one-point decimation keeps the most recent sample.
		out.Append(s.ts[ln-1], s.vs[ln-1])
		return out
	}
	stride := float64(ln-1) / float64(n-1)
	prev := -1
	for i := 0; i < n; i++ {
		idx := int(math.Round(float64(i) * stride))
		if idx <= prev {
			idx = prev + 1
		}
		if idx >= ln {
			idx = ln - 1
		}
		out.Append(s.ts[idx], s.vs[idx])
		prev = idx
	}
	return out
}

// Recorder collects multiple named series sampled on a shared clock, with a
// configurable minimum interval between stored samples to bound memory.
type Recorder struct {
	series   map[string]*Series
	order    []string
	interval float64 // minimum spacing between stored samples; 0 = keep all
}

// NewRecorder returns a Recorder storing every sample. Use SetInterval to
// decimate on the fly.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// SetInterval sets the minimum simulated-time spacing between stored
// samples for all series. Samples arriving sooner are dropped.
func (r *Recorder) SetInterval(dt float64) { r.interval = dt }

// Interval returns the minimum spacing between stored samples (0 = keep
// all).
func (r *Recorder) Interval() float64 { return r.interval }

// create registers a new series under the recorder.
func (r *Recorder) create(name, unit string) *Series {
	s := NewSeries(name, unit)
	r.series[name] = s
	r.order = append(r.order, name)
	return s
}

// Channel is the append handle for one named series, resolved once so
// that recording costs no per-sample map lookup; the recorder's
// interval gate applies to every sample.
type Channel struct {
	r *Recorder
	s *Series
}

// Channel returns an append handle for the named series, creating it
// (in recorder column order) on first use.
func (r *Recorder) Channel(name, unit string) *Channel {
	s, ok := r.series[name]
	if !ok {
		s = r.create(name, unit)
	}
	return &Channel{r: r, s: s}
}

// Record appends a sample, subject to the recorder's interval gate.
func (c *Channel) Record(t, v float64) {
	if c.Due(t) {
		c.s.lastT = t
		c.s.Append(t, v)
	}
}

// Due reports whether Record(t, ·) would store a sample: the interval
// gate passes always when no interval is set or the series is empty,
// and otherwise once at least the interval has passed since the last
// stored sample. Observers that record several channels in lockstep ask
// the first one once per instant, and skip computing the values at all
// when it is not due.
func (c *Channel) Due(t float64) bool {
	iv := c.r.interval
	return !(iv > 0 && t-c.s.lastT < iv && len(c.s.vs) > 0)
}

// Series returns the named series, or nil if it was never recorded.
func (r *Recorder) Series(name string) *Series { return r.series[name] }

// WriteCSV writes all series as aligned CSV columns (time, then one column
// per series, values linearly interpolated onto the union of timestamps of
// the first series). For experiment output where all series share a clock
// this is exact.
//
// Rendering is one linear pass: every column is walked by a cursor that
// only moves forward with the first series' non-decreasing clock, and
// rows are formatted into one reused buffer.
func (r *Recorder) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriterSize(w, csvBufSize)
	row := append(make([]byte, 0, 64), 't')
	for _, name := range r.order {
		row = appendColumn(append(row, ','), name, "", r.series[name].Unit)
	}
	row = append(row, '\n')
	if _, err := bw.Write(row); err != nil {
		return err
	}
	if len(r.order) == 0 {
		return bw.Flush()
	}
	cols := make([]cursor, len(r.order))
	for i, name := range r.order {
		cols[i].s = r.series[name]
	}
	for _, t := range cols[0].s.ts {
		row = appendFloat(row[:0], t)
		for i := range cols {
			row = appendFloat(append(row, ','), cols[i].sample(t))
		}
		row = append(row, '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// csvBufSize is the CSV renderers' write granularity.
const csvBufSize = 32 << 10

// cursor evaluates Series.Sample at a non-decreasing sequence of times
// in amortised O(1): i is the first index whose timestamp exceeds the
// previous query, the index Sample's binary search would find.
type cursor struct {
	s *Series
	i int
}

// sample returns exactly s.Sample(t). Queries must not decrease — they
// are the first series' timestamps, non-decreasing like every series'.
func (c *cursor) sample(t float64) float64 {
	s := c.s
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
	for s.ts[c.i] <= t {
		c.i++
	}
	return s.lerp(c.i, t)
}

// appendColumn appends a CSV column header: name, suffix, then the
// unit in parentheses when there is one.
func appendColumn(b []byte, name, suffix, unit string) []byte {
	b = append(append(b, name...), suffix...)
	if unit != "" {
		b = append(append(append(b, '('), unit...), ')')
	}
	return b
}

// appendFloat formats v for CSV: integers below 1e15 in full, anything
// else to nine significant digits — the bytes fmt's %.0f and %.9g print.
func appendFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		// Such an integer converts to int64 exactly, and its decimal
		// digits are what %.0f prints; only −0 keeps a sign int64 drops.
		if v == 0 && math.Signbit(v) {
			return append(b, "-0"...)
		}
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', 9, 64)
}
