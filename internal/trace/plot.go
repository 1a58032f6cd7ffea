package trace

import (
	"fmt"
	"math"
	"strings"
)

// Plot renders the series as a multi-row ASCII chart of the given width and
// height, with a y-axis scale and x-range footer. It is intentionally
// simple: one column per decimated sample, '*' marks.
func Plot(s *Series, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 2 {
		height = 2
	}
	d := s.Decimate(width)
	if d.Len() == 0 {
		return fmt.Sprintf("%s: (empty)\n", s.Name)
	}
	st := d.Summarize()
	span := st.Max - st.Min
	if span == 0 {
		span = 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", d.Len()))
	}
	for col := 0; col < d.Len(); col++ {
		row := int((d.V(col) - st.Min) / span * float64(height-1))
		if row < 0 {
			row = 0
		}
		if row >= height {
			row = height - 1
		}
		grid[height-1-row][col] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]\n", s.Name, s.Unit)
	for i, row := range grid {
		label := ""
		switch i {
		case 0:
			label = fmt.Sprintf("%10.4g", st.Max)
		case height - 1:
			label = fmt.Sprintf("%10.4g", st.Min)
		default:
			label = strings.Repeat(" ", 10)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 10), strings.Repeat("-", d.Len()))
	fmt.Fprintf(&b, "%s  t: %.4g .. %.4g s\n", strings.Repeat(" ", 10), st.TMin, st.TMax)
	return b.String()
}

// ScatterPoint is one (x, y) mark with an optional label, used for
// operating-point scatter plots like the paper's Fig. 5.
type ScatterPoint struct {
	X, Y  float64
	Label string
}

// Scatter renders a set of points as an ASCII scatter chart.
func Scatter(title, xLabel, yLabel string, pts []ScatterPoint, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(pts) == 0 {
		b.WriteString("(no points)\n")
		return b.String()
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	spanX, spanY := maxX-minX, maxY-minY
	if spanX == 0 {
		spanX = 1
	}
	if spanY == 0 {
		spanY = 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range pts {
		col := int((p.X - minX) / spanX * float64(width-1))
		row := int((p.Y - minY) / spanY * float64(height-1))
		grid[height-1-row][col] = '+'
	}
	fmt.Fprintf(&b, "%10.4g |", maxY)
	b.WriteString(string(grid[0]))
	b.WriteByte('\n')
	for i := 1; i < height-1; i++ {
		fmt.Fprintf(&b, "%s |%s\n", strings.Repeat(" ", 10), string(grid[i]))
	}
	fmt.Fprintf(&b, "%10.4g |%s\n", minY, string(grid[height-1]))
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 10), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %s: %.4g .. %.4g   (y: %s)\n",
		strings.Repeat(" ", 10), xLabel, minX, maxX, yLabel)
	return b.String()
}
