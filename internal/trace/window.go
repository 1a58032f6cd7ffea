package trace

import (
	"bufio"
	"io"
	"math"
	"sort"
)

// Bucket is one aggregation interval of a windowed query: the samples
// whose timestamps fall in [T, T+width) reduced to their extrema. Empty
// buckets (N == 0) carry the series' interpolated value at the bucket
// start in both Min and Max, so a windowed render stays continuous
// across sparse regions.
type Bucket struct {
	T        float64 // bucket start time
	Min, Max float64
	N        int // samples aggregated; 0 = interpolated fill
}

// Window reduces the series over [from, to] to at most points buckets of
// equal width, each carrying the min/max of the samples inside it. It is
// one forward pass over the samples in the window: O(points + samples).
// Points < 1 or to ≤ from yields nil; an empty series yields buckets with
// N == 0 and zero values.
func (s *Series) Window(from, to float64, points int) []Bucket {
	if points < 1 || !(to > from) {
		return nil
	}
	width := (to - from) / float64(points)
	out := make([]Bucket, points)
	i := sort.SearchFloat64s(s.ts, from)
	for b := range out {
		start := from + float64(b)*width
		end := from + float64(b+1)*width
		if b == points-1 {
			// Make the final bucket closed on the right so a sample at
			// exactly t == to is not dropped by the half-open walk.
			end = math.Nextafter(to, math.Inf(1))
		}
		bk := Bucket{T: start, Min: math.Inf(1), Max: math.Inf(-1)}
		for ; i < len(s.ts) && s.ts[i] < end; i++ {
			v := s.vs[i]
			if v < bk.Min {
				bk.Min = v
			}
			if v > bk.Max {
				bk.Max = v
			}
			bk.N++
		}
		if bk.N == 0 {
			v := s.Sample(start)
			bk.Min, bk.Max = v, v
		}
		out[b] = bk
	}
	return out
}

// WriteWindowCSV renders a windowed view of every series as CSV: one row
// per bucket at the bucket start time, with name_min(unit),name_max(unit)
// columns per series. It is the payload behind the service's
// /trace?from=&to=&points= query. A degenerate window (points < 1 or
// to ≤ from) renders the header alone.
func (r *Recorder) WriteWindowCSV(w io.Writer, from, to float64, points int) error {
	bw := bufio.NewWriterSize(w, csvBufSize)
	row := append(make([]byte, 0, 64), 't')
	for _, name := range r.order {
		unit := r.series[name].Unit
		row = appendColumn(append(row, ','), name, "_min", unit)
		row = appendColumn(append(row, ','), name, "_max", unit)
	}
	row = append(row, '\n')
	if _, err := bw.Write(row); err != nil {
		return err
	}
	if len(r.order) == 0 {
		return bw.Flush()
	}
	windows := make([][]Bucket, len(r.order))
	for i, name := range r.order {
		windows[i] = r.series[name].Window(from, to, points)
	}
	for b := range windows[0] {
		row = appendFloat(row[:0], windows[0][b].T)
		for i := range windows {
			bk := windows[i][b]
			row = appendFloat(append(row, ','), bk.Min)
			row = appendFloat(append(row, ','), bk.Max)
		}
		row = append(row, '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TimeRange returns the earliest and latest timestamp across all series
// in the recorder, and false if no samples have been recorded.
func (r *Recorder) TimeRange() (from, to float64, ok bool) {
	from, to = math.Inf(1), math.Inf(-1)
	for _, name := range r.order {
		s := r.series[name]
		n := s.Len()
		if n == 0 {
			continue
		}
		if first := s.T(0); first < from {
			from = first
		}
		if last := s.T(n - 1); last > to {
			to = last
		}
		ok = true
	}
	if !ok {
		return 0, 0, false
	}
	return from, to, true
}
