package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/lab"
	"repro/internal/source"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// pvTableSpecs are PV-powered analytic sweeps over dt and a node
// parameter. Each uses a flicker value no other test shares, so its
// first run finds no harvest table. Cases with the same source and a
// different dt follow each other, so a table keyed without dt would be
// read by the wrong grid.
var pvTableSpecs = map[string]string{
	"eneutral": `{"name":"pv-table","model":"eneutral","source":{"name":"pv","params":{"flicker":0.0311}},
		"params":{"batteryj":120,"pactive":"5m","psleep":"50u"},"duration":172800,
		"sweep":[{"param":"model.duty0","values":[0.1,0.3]},{"param":"dt","values":[10,20]}]}`,
	"taskburst": `{"name":"pv-table","model":"taskburst","storage":{"c":"6m"},"source":{"name":"pv","params":{"flicker":0.0312}},
		"duration":86400,
		"sweep":[{"param":"model.taskenergy","values":["1m","2m"]},{"param":"dt","values":[1,2]}]}`,
}

// plainPower hides a source's concrete type, so the harvest table (kept
// for *source.Photovoltaic only) never serves it.
type plainPower struct{ source.PowerSource }

// untabled wraps an analytic model so that its runs call Power on every
// step: the reference the table-reading runs must match bit for bit.
type untabled struct{ Model }

func (u untabled) newRun(sp *Spec, rec *trace.Recorder) (modelRun, error) {
	run, err := u.Model.newRun(sp, rec)
	if err != nil {
		return nil, err
	}
	switch r := run.(type) {
	case *eneutralRun:
		r.node.Harvest = plainPower{r.node.Harvest}
	case *taskburstRun:
		r.n.Harvest = plainPower{r.n.Harvest}
	default:
		return nil, fmt.Errorf("%T has no harvest to hide", run)
	}
	return run, nil
}

func modelOf(t *testing.T, sp *Spec) Model {
	t.Helper()
	m, err := LookupModel(sp.ModelName())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runState steps one case of m to the end and returns its checkpoint
// state, which holds every accumulator at full precision.
func runState(t *testing.T, m Model, sp *Spec) []byte {
	t.Helper()
	run, err := m.newRun(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	run.Step(0)
	b, err := json.Marshal(run.state())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHarvestTableRunsMatchUntabled: every case of the PV sweeps, run on
// its own, ends in the same full-precision state whether it samples the
// source on every step or reads the shared table — the first run on a
// key builds the table, the second reads it.
func TestHarvestTableRunsMatchUntabled(t *testing.T) {
	for name, src := range pvTableSpecs {
		t.Run(name, func(t *testing.T) {
			sp := mustParse(t, src)
			m := modelOf(t, sp)
			for _, c := range sp.Grid().Cases() {
				cs, err := sp.At(c)
				if err != nil {
					t.Fatal(err)
				}
				want := runState(t, untabled{m}, cs)
				for pass := range 2 {
					if got := runState(t, m, cs); !bytes.Equal(got, want) {
						t.Fatalf("case %s, run %d: state with the harvest table\n%s\nwithout\n%s", c.Name, pass+1, got, want)
					}
				}
			}
		})
	}
}

// TestHarvestTableSweepConcurrent: the PV sweeps run concurrently, at
// workers 1 and 8, render byte-identical reports and identical metrics
// to a run with no table, while the runs build and read the shared
// tables under one another (run it with -race).
func TestHarvestTableSweepConcurrent(t *testing.T) {
	for name, src := range pvTableSpecs {
		t.Run(name, func(t *testing.T) {
			sp := mustParse(t, src)
			// A flicker of its own, so these runs build the tables too.
			if err := sp.Apply("source.flicker", 0.0321); err != nil {
				t.Fatal(err)
			}
			eng, err := newEngine(untabled{modelOf(t, sp)}, sp, RunOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for !eng.Done() {
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
			want, err := eng.Report()
			if err != nil {
				t.Fatal(err)
			}
			reports := make([]*ModelReport, 6)
			errs := make([]error, len(reports))
			var wg sync.WaitGroup
			for i := range reports {
				wg.Add(1)
				go func() {
					defer wg.Done()
					workers := 1
					if i%2 == 1 {
						workers = 8
					}
					reports[i], errs[i] = RunModel(sp, RunOptions{Workers: workers})
				}()
			}
			wg.Wait()
			for i, got := range reports {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if got.Text != want.Text {
					t.Errorf("run %d: report differs from the untabled run:\n%s\nwant\n%s", i, got.Text, want.Text)
				}
				if !reflect.DeepEqual(got.Cases, want.Cases) {
					t.Errorf("run %d: cases differ from the untabled run:\n got %+v\nwant %+v", i, got.Cases, want.Cases)
				}
			}
		})
	}
}

// TestSampleTableLabRunsMatchUntabled: the lab rail reads the shared
// sample table for the sine family, and every run of fig7 and of the
// first and last case of powerneutral-storage-sweep returns a lab.Result
// reflect.DeepEqual to a run whose source type is hidden from the table:
// energies, FinalV and completion times included. Each spec runs on two
// series resistances no other test uses, so the first run on each finds
// no table: on one a stepwise run builds it, and warm stepwise and
// fast-forward runs read it; on the other a fast-forward run builds it
// for its whole duration, though it samples only the steps it does not
// hop, and warm fast-forward and stepwise runs read it.
func TestSampleTableLabRunsMatchUntabled(t *testing.T) {
	for _, tc := range []struct {
		name string
		rs   float64
	}{
		{"fig7-rectified-sine-hibernus", 150},
		{"powerneutral-storage-sweep", 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, order := range [][]bool{{false, false, true}, {true, true, false}} {
				rs := tc.rs + float64(i+1)/32
				for _, ff := range order {
					sp := gateSpec(t, tc.name, "", ff)
					if err := sp.Apply("source.rs", rs); err != nil {
						t.Fatal(err)
					}
					// fig7 has no sweep: its one case is the spec.
					cases := sp.Grid().Cases()
					if len(cases) > 1 {
						cases = []sweep.Case{cases[0], cases[len(cases)-1]}
					}
					if len(cases) == 0 {
						cases = []sweep.Case{{Name: tc.name}}
					}
					for _, c := range cases {
						run := func(hide bool) lab.Result {
							st, err := sp.SetupAt(c)
							if err != nil {
								t.Fatal(err)
							}
							if hide {
								st.VSource = struct{ source.VoltageSource }{st.VSource}
							}
							res, err := lab.Run(st)
							if err != nil {
								t.Fatal(err)
							}
							return res
						}
						got, want := run(false), run(true)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("rs %v, fast-forward %v, case %s: with the table\n%+v\nwithout\n%+v",
								rs, ff, c.Name, got, want)
						}
					}
				}
			}
		})
	}
}
