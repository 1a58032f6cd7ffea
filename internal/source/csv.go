package source

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// LoadTraceCSV reads a recorded harvester waveform from CSV into a
// TraceSource. The expected shape is a header row followed by rows whose
// first column is the timestamp in seconds and whose valueCol-th column
// (0-based, so usually 1) is the value — the format written by
// trace.Recorder.WriteCSV and typical of published harvesting datasets
// (the paper's experimental data is published at DOI
// 10.5258/SOTON/404058 in this shape).
//
// The first record is treated as the header only when its first cell is
// not numeric-looking; a file whose header starts with a number ("0,v")
// is therefore read as data from line 1 — name the time column.
//
// Rows must be in non-decreasing time order, with finite timestamps.
// Blank lines are skipped; a malformed row aborts with an error naming
// its line in the file (blank and skipped lines counted), so the message
// points at the actual offending line of a hand-edited dataset.
func LoadTraceCSV(r io.Reader, valueCol int, loop bool, rs float64) (*TraceSource, error) {
	if valueCol < 1 {
		return nil, fmt.Errorf("source: value column must be ≥ 1 (column 0 is time)")
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	ts := &TraceSource{Loop: loop, Rs: rs}
	first := true
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("source: reading trace CSV: %w", err)
		}
		// FieldPos reports the position of the record just returned, so
		// error messages can name the file line even when the reader
		// silently skipped blank lines before it.
		line, _ := cr.FieldPos(0)
		if first {
			first = false
			if !looksNumeric(row[0]) {
				continue // header
			}
		}
		if len(row) == 1 && strings.TrimSpace(row[0]) == "" {
			continue
		}
		if len(row) <= valueCol {
			return nil, fmt.Errorf("source: line %d has %d columns, need ≥ %d", line, len(row), valueCol+1)
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(row[0]), 64)
		if err != nil || math.IsNaN(t) || math.IsInf(t, 0) {
			// A NaN would slip past the ordering check below.
			return nil, fmt.Errorf("source: line %d: bad timestamp %q", line, row[0])
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(row[valueCol]), 64)
		if err != nil {
			return nil, fmt.Errorf("source: line %d: bad value %q", line, row[valueCol])
		}
		if n := len(ts.Times); n > 0 && t < ts.Times[n-1] {
			return nil, fmt.Errorf("source: line %d: time %g goes backwards", line, t)
		}
		ts.Times = append(ts.Times, t)
		ts.Values = append(ts.Values, v)
	}
	if len(ts.Times) == 0 {
		return nil, fmt.Errorf("source: trace CSV contains no samples")
	}
	return ts, nil
}

// looksNumeric reports whether s parses as a float.
func looksNumeric(s string) bool {
	_, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return err == nil
}
