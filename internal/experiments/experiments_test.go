package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"eq1", "eq3", "eq4", "eq5", "fig1a", "fig1b", "fig2", "fig5", "fig7", "fig8", "periph", "runtimes"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	if _, ok := ByID("fig7"); !ok {
		t.Error("ByID(fig7) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) should fail")
	}
}

// runExp runs one experiment and returns its output.
func runExp(t *testing.T, id string) *Output {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if out.ID != id {
		t.Errorf("%s: output ID %q", id, out.ID)
	}
	if len(out.Notes) == 0 {
		t.Errorf("%s: no shape notes", id)
	}
	if r := out.Render(); !strings.Contains(r, id) {
		t.Errorf("%s: render missing ID", id)
	}
	return out
}

// cell fetches a named row's column from the first table with that row.
func cell(t *testing.T, out *Output, rowKey string, col int) string {
	t.Helper()
	for _, tbl := range out.Tables {
		for _, row := range tbl.Rows {
			if len(row) > col && row[0] == rowKey {
				return row[col]
			}
		}
	}
	t.Fatalf("%s: row %q not found", out.ID, rowKey)
	return ""
}

func TestFig1aShape(t *testing.T) {
	out := runExp(t, "fig1a")
	peak := cell(t, out, "peak voltage", 1)
	if !strings.HasPrefix(peak, "+5.") && !strings.HasPrefix(peak, "+6.") {
		t.Errorf("peak voltage %q outside the ±6 V shape", peak)
	}
	if out.Recorder == nil || out.Recorder.Series("vout") == nil {
		t.Error("fig1a should record the waveform")
	}
}

func TestFig1bShape(t *testing.T) {
	out := runExp(t, "fig1b")
	floor := cell(t, out, "overnight floor", 1)
	peakS := cell(t, out, "midday peak", 1)
	f, _ := strconv.ParseFloat(strings.Fields(floor)[0], 64)
	p, _ := strconv.ParseFloat(strings.Fields(peakS)[0], 64)
	if f < 260 || f > 300 {
		t.Errorf("floor %v µA outside 280±20", f)
	}
	if p < 410 || p > 450 {
		t.Errorf("peak %v µA outside 430±20", p)
	}
}

func TestFig2Shape(t *testing.T) {
	out := runExp(t, "fig2")
	if len(out.Tables) == 0 || len(out.Tables[0].Rows) != 13 {
		t.Fatal("fig2 should tabulate the 13 registry systems")
	}
	// Sorted ascending by autonomy: first row must be a continuous
	// energy-driven system, last a traditional one.
	first, last := out.Tables[0].Rows[0], out.Tables[0].Rows[len(out.Tables[0].Rows)-1]
	if first[7] != "energy-driven" {
		t.Errorf("least-storage system should be energy-driven, got %v", first)
	}
	if last[7] != "traditional" {
		t.Errorf("most-storage system should be traditional, got %v", last)
	}
}

func TestFig5Shape(t *testing.T) {
	out := runExp(t, "fig5")
	ratio := cell(t, out, "modulation ratio", 1)
	r, _ := strconv.ParseFloat(strings.TrimSuffix(ratio, "×"), 64)
	if r < 8 || r > 20 {
		t.Errorf("modulation ratio %v outside the order-of-magnitude claim", r)
	}
	if len(out.Plots) == 0 {
		t.Error("fig5 should render the scatter")
	}
}

func TestFig7Shape(t *testing.T) {
	out := runExp(t, "fig7")
	// The paper's shape: completion a few supply cycles in, with roughly
	// one snapshot per supply cycle.
	comp := cell(t, out, "first FFT completion", 1)
	_, rest, ok := strings.Cut(comp, "(supply cycle ")
	cyc, err := strconv.Atoi(strings.TrimSuffix(rest, ")"))
	if !ok || err != nil {
		t.Fatalf("cannot parse completion cycle from %q", comp)
	}
	if cyc < 2 || cyc > 5 {
		t.Errorf("FFT completed in supply cycle %d; the paper's shape is cycle 3 (accept 2–5)", cyc)
	}
	if cell(t, out, "wrong results", 1) != "0" {
		t.Error("fig7 produced corrupted results")
	}
}

func TestFig8Shape(t *testing.T) {
	out := runExp(t, "fig8")
	// PN's uninterrupted window must dwarf the static baseline's.
	stretchRow := cell(t, out, "longest uninterrupted run", 1)
	staticRow := cell(t, out, "longest uninterrupted run", 2)
	pn, _ := strconv.ParseFloat(strings.Fields(stretchRow)[0], 64)
	st, _ := strconv.ParseFloat(strings.Fields(staticRow)[0], 64)
	if pn < 2*st {
		t.Errorf("PN stretch %.2f s vs static %.2f s: expected ≥2×", pn, st)
	}
	if len(out.Plots) < 2 {
		t.Error("fig8 should plot V_CC and the DFS trace")
	}
}

func TestEq1Shape(t *testing.T) {
	out := runExp(t, "eq1")
	if cell(t, out, "kansal-adaptive", 2) != "0" {
		t.Error("adaptive node should have zero eq.(2) violations")
	}
	gv, _ := strconv.Atoi(cell(t, out, "fixed 80%", 2))
	if gv == 0 {
		t.Error("greedy fixed duty should violate eq.(2)")
	}
}

func TestEq3Shape(t *testing.T) {
	out := runExp(t, "eq3")
	rows := out.Tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("eq3 rows = %d", len(rows))
	}
	// Minimal storage forces tight short-timescale tracking; generous
	// storage relaxes it (the power-neutral → energy-neutral continuum).
	first, _ := strconv.ParseFloat(rows[0][1], 64)
	last, _ := strconv.ParseFloat(rows[len(rows)-1][1], 64)
	if first >= last {
		t.Errorf("tracking error should grow with storage: %.3f → %.3f", first, last)
	}
	// No configuration may brown out (the governor's whole job).
	for _, row := range rows {
		if row[3] != "0" {
			t.Errorf("C=%s browned out %s times", row[0], row[3])
		}
	}
}

func TestEq4Shape(t *testing.T) {
	out := runExp(t, "eq4")
	var sawAbort, sawClean bool
	for _, row := range out.Tables[0].Rows {
		m, _ := strconv.ParseFloat(row[0], 64)
		aborted, _ := strconv.Atoi(row[3])
		completions, _ := strconv.Atoi(row[4])
		if m < 0.95 && aborted > 0 {
			sawAbort = true
		}
		if m >= 1.0 {
			if aborted != 0 {
				t.Errorf("margin %.2f aborted %d saves; eq.(4) budget should hold", m, aborted)
			}
			if completions > 0 {
				sawClean = true
			}
		}
	}
	if !sawAbort {
		t.Error("under-margined thresholds never aborted a save — boundary not demonstrated")
	}
	if !sawClean {
		t.Error("no clean completions at margin ≥ 1.0")
	}
}

func TestEq5Shape(t *testing.T) {
	out := runExp(t, "eq5")
	rows := out.Tables[0].Rows
	if rows[0][3] != "hibernus" {
		t.Errorf("at the lowest outage rate hibernus should win, got %q", rows[0][3])
	}
	if rows[len(rows)-1][3] != "quickrecall" {
		t.Errorf("at the highest outage rate quickrecall should win, got %q", rows[len(rows)-1][3])
	}
	// Winner flips exactly once along the sweep (monotone crossover).
	flips := 0
	for i := 1; i < len(rows); i++ {
		if rows[i][3] != rows[i-1][3] {
			flips++
		}
	}
	if flips != 1 {
		t.Errorf("crossover should flip once, flipped %d times", flips)
	}
}

func TestRuntimesShape(t *testing.T) {
	out := runExp(t, "runtimes")
	if cell(t, out, "none (restart)", 1) != "0" {
		t.Error("bare device should never complete")
	}
	for _, name := range []string{"mementos", "hibernus", "hibernus++", "quickrecall"} {
		c, _ := strconv.Atoi(cell(t, out, name, 1))
		if c == 0 {
			t.Errorf("%s made no progress", name)
		}
		if cell(t, out, name, 2) != "0" {
			t.Errorf("%s produced wrong results", name)
		}
	}
	hib, _ := strconv.Atoi(cell(t, out, "hibernus", 3))
	mem, _ := strconv.Atoi(cell(t, out, "mementos", 3))
	if float64(mem) < 1.5*float64(hib) {
		t.Errorf("mementos saves (%d) should exceed hibernus (%d) by ≥1.5×", mem, hib)
	}
}

func TestPeriphShape(t *testing.T) {
	out := runExp(t, "periph")
	naiveWrong, _ := strconv.Atoi(cell(t, out, "hibernus (CPU+RAM only)", 2))
	naiveDropped, _ := strconv.Atoi(cell(t, out, "hibernus (CPU+RAM only)", 4))
	if naiveWrong == 0 || naiveDropped == 0 {
		t.Error("naive restore should corrupt results and drop packets")
	}
	if cell(t, out, "hibernus + peripheral state", 2) != "0" {
		t.Error("aware restore should produce no wrong results")
	}
	if cell(t, out, "hibernus + peripheral state", 4) != "0" {
		t.Error("aware restore should drop no packets")
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:   "t",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"xxx", "y"}},
	}
	r := tbl.Render()
	if !strings.Contains(r, "xxx") || !strings.Contains(r, "---") {
		t.Errorf("render = %q", r)
	}
}

// A metric a case does not report fails the harness with its key named,
// where a plain map index would print it as 0.
func TestReportedNamesMissingMetric(t *testing.T) {
	m := map[string]float64{"v_h": 3.1, "longest_on": 0}
	if got, err := reported(m, "v_h", "longest_on"); err != nil || got["v_h"] != 3.1 {
		t.Fatalf("reported(v_h, longest_on) = %v, %v; want the map and no error", got, err)
	}
	if _, err := reported(m, "v_h", "track_err", "v_r"); err == nil || !strings.Contains(err.Error(), `"track_err"`) {
		t.Fatalf("reported with track_err absent: err = %v, want one naming track_err", err)
	}

	// A runtime with no hibernate threshold reports no v_h.
	sp, err := scenario.Parse([]byte(`{"name":"x","workload":"fib24","storage":{"c":"10u"},
		"source":{"name":"dc"},"runtime":{"name":"mementos"},"duration":0.002}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reported(rep.Cases[0].Metrics, "v_h"); err == nil || !strings.Contains(err.Error(), `"v_h"`) {
		t.Fatalf("mementos case: err = %v, want one naming v_h", err)
	}
}
