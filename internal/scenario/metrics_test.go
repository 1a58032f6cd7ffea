package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lab"
	"repro/internal/units"
)

// TestMetricsMatchRenderedCells is the cross-model consistency contract:
// every number a sweep table renders must be derivable from the case's
// structured Metrics alone, for all four models. Each entry re-renders
// the row cells from ModelCase.Metrics with the model's own format
// strings and requires byte equality with the report text — so the
// rendered table and the explorer's objectives can never drift apart.
func TestMetricsMatchRenderedCells(t *testing.T) {
	cases := []struct {
		model string
		spec  string
		// cells re-renders one case's table row from its metrics.
		cells func(t *testing.T, m map[string]float64) []string
	}{
		{
			model: "lab",
			// sense64 drives a peripheral bank and fib24 does not, so the
			// table has packet columns and fib24's rows fill them with "-".
			spec: `{"name":"x","workload":"fib24","storage":{"c":"10u"},
				"source":{"name":"dc"},"duration":0.002,
				"sweep":[{"param":"workload","names":["fib24","sense64"]},{"param":"c","values":["10u","47u"]}]}`,
			cells: func(t *testing.T, m map[string]float64) []string {
				eop := "∞"
				if v, ok := m["energy_per_op"]; ok {
					eop = units.Format(v, "J")
				}
				cells := []string{
					fmt.Sprintf("%d", int(m["completions"])),
					fmt.Sprintf("%d", int(m["wrong"])),
					fmt.Sprintf("%d", int(m["snapshots"])),
					fmt.Sprintf("%d", int(m["brownouts"])),
					eop,
					units.Format(m["harvested"], "J"),
				}
				if _, ok := m["tx_delivered"]; ok {
					cells = append(cells,
						fmt.Sprintf("%d", int(m["tx_delivered"])),
						fmt.Sprintf("%d", int(m["tx_dropped"])))
				}
				return cells
			},
		},
		{
			model: "mpsoc",
			spec: `{"name":"x","model":"mpsoc","source":{"name":"const-power","params":{"p":2}},
				"duration":120,"dt":1,
				"sweep":[{"param":"source.p","values":[1,3]}]}`,
			cells: func(t *testing.T, m map[string]float64) []string {
				return []string{
					fmt.Sprintf("%.1f", m["frames"]),
					fmt.Sprintf("%.2f", m["mean_fps"]),
					fmt.Sprintf("%.3f", m["used_w"]),
					fmt.Sprintf("%.1f%%", m["utilization"]*100),
					fmt.Sprintf("%d", int(m["switches"])),
					fmt.Sprintf("%d", int(m["starved"])),
				}
			},
		},
		{
			model: "taskburst",
			spec: `{"name":"x","model":"taskburst","storage":{"c":"6m"},
				"source":{"name":"const-power","params":{"p":"2m"}},"duration":2,
				"sweep":[{"param":"model.taskenergy","values":["1m","2m"]}]}`,
			cells: func(t *testing.T, m map[string]float64) []string {
				first := "never"
				if v, ok := m["first_fire"]; ok {
					first = units.FormatSeconds(v)
				}
				return []string{
					fmt.Sprintf("%d", int(m["events"])),
					fmt.Sprintf("%.3f/s", m["rate"]),
					fmt.Sprintf("%.2fV", m["v_fire"]),
					first,
				}
			},
		},
		{
			model: "eneutral",
			spec: `{"name":"x","model":"eneutral","source":{"name":"const-power","params":{"p":"50m"}},
				"duration":7200,"params":{"window":3600,"ctrlperiod":600},
				"sweep":[{"param":"model.duty0","values":[0.1,0.3]}]}`,
			cells: func(t *testing.T, m map[string]float64) []string {
				worst := "n/a"
				if v, ok := m["worst_window"]; ok {
					worst = fmt.Sprintf("%.2f%%", v*100)
				}
				return []string{
					units.Format(m["harvested"], "J"),
					units.Format(m["consumed"], "J"),
					worst,
					fmt.Sprintf("%d", int(m["violations"])),
					fmt.Sprintf("%.1f%%", m["final_soc"]*100),
					fmt.Sprintf("%.1f%%", m["mean_duty"]*100),
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.model, func(t *testing.T) {
			sp := mustParse(t, tc.spec)
			m, err := LookupModel(sp.ModelName())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunModel(sp, RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			header, rows := tableRows(t, rep.Text)
			if len(rows) != len(rep.Cases) {
				t.Fatalf("report has %d table rows but %d cases:\n%s", len(rows), len(rep.Cases), rep.Text)
			}
			docs := metricKeySet(m)
			for i, mc := range rep.Cases {
				if len(mc.Metrics) == 0 {
					t.Fatalf("case %q carries no metrics", mc.Name)
				}
				for k := range mc.Metrics {
					if !docs[k] {
						t.Errorf("case %q metric %q is not documented in Metrics()", mc.Name, k)
					}
				}
				want := tc.cells(t, mc.Metrics)
				for len(want) < len(header)-1 {
					want = append(want, "-")
				}
				if got := rows[i][1:]; !equalCells(got, want) {
					t.Errorf("case %q: rendered cells %v != cells from metrics %v", mc.Name, got, want)
				}
			}
		})
	}
}

// TestSingleRunMetricsDocumented runs each model sweep-free and checks
// the single-run path fills Metrics with documented keys too.
func TestSingleRunMetricsDocumented(t *testing.T) {
	specs := map[string]string{
		"lab":       `{"name":"x","workload":"fib24","storage":{"c":"10u"},"source":{"name":"dc"},"duration":0.002}`,
		"mpsoc":     `{"name":"x","model":"mpsoc","source":{"name":"const-power","params":{"p":2}},"duration":60,"dt":1}`,
		"taskburst": `{"name":"x","model":"taskburst","storage":{"c":"6m"},"source":{"name":"const-power","params":{"p":"2m"}},"duration":2}`,
		"eneutral":  `{"name":"x","model":"eneutral","source":{"name":"const-power","params":{"p":"50m"}},"duration":3600}`,
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			sp := mustParse(t, spec)
			m, err := LookupModel(sp.ModelName())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunModel(sp, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Cases) != 1 || len(rep.Cases[0].Metrics) == 0 {
				t.Fatalf("single run: %d cases, metrics %v", len(rep.Cases), rep.Cases)
			}
			docs := metricKeySet(m)
			for k := range rep.Cases[0].Metrics {
				if !docs[k] {
					t.Errorf("metric %q is not documented in Metrics()", k)
				}
			}
		})
	}
}

// metricKeySet collects a model's documented metric keys, failing on
// duplicates would be overkill — the registry output is tiny and sorted
// by declaration, so a set suffices for membership checks.
func metricKeySet(m Model) map[string]bool {
	set := make(map[string]bool)
	for _, d := range m.Metrics() {
		set[d.Key] = true
	}
	return set
}

// tableRows splits a sweep report's text into its header and per-case
// rows of whitespace-separated fields (field 0 is the case name). The
// first two lines are the title and the header.
func tableRows(t *testing.T, text string) (header []string, rows [][]string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("report too short for a sweep table:\n%s", text)
	}
	for _, l := range lines[2:] {
		rows = append(rows, strings.Fields(l))
	}
	return strings.Fields(lines[1]), rows
}

func equalCells(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestLabThresholdAndStretchMetrics pins the v_h, v_r, longest_on,
// track_err and vcc_range metrics on the curated testbeds of fig7, fig8
// and eq3 to what those figures print, to more digits (fig8's static
// baseline is plain hibernus at DFS level 4), and checks that each is
// absent where it is undefined.
func TestLabThresholdAndStretchMetrics(t *testing.T) {
	metrics := func(t *testing.T, sp *Spec) map[string]float64 {
		t.Helper()
		rep, err := RunModel(sp, RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cases[0].Metrics
	}
	pin := func(t *testing.T, m map[string]float64, key, format, want string) {
		t.Helper()
		v, ok := m[key]
		if !ok {
			t.Fatalf("metric %s is absent", key)
		}
		if got := fmt.Sprintf(format, v); got != want {
			t.Errorf("%s = %s, want %s", key, got, want)
		}
	}
	t.Run("fig7 thresholds", func(t *testing.T) {
		m := metrics(t, gateSpec(t, "fig7-rectified-sine-hibernus", "", false))
		pin(t, m, "v_h", "%.12f", "3.009967441684")
		pin(t, m, "v_r", "%.12f", "3.309967441684")
	})
	t.Run("fig8 stretches", func(t *testing.T) {
		pn := gateSpec(t, "powerneutral-wind-gust", "", false)
		pin(t, metrics(t, pn), "longest_on", "%.9f", "3.335000000")
		plain := pn.Clone()
		if err := plain.Apply("runtime", "hibernus"); err != nil {
			t.Fatal(err)
		}
		if err := plain.Apply("freqindex", 4.0); err != nil {
			t.Fatal(err)
		}
		pin(t, metrics(t, plain), "longest_on", "%.9f", "0.736185000")
	})
	t.Run("eq3 tracking", func(t *testing.T) {
		sw := gateSpec(t, "powerneutral-storage-sweep", "", false)
		sp, err := sw.At(sw.Grid().Cases()[0]) // 47 µF
		if err != nil {
			t.Fatal(err)
		}
		m := metrics(t, sp)
		pin(t, m, "track_err", "%.12f", "0.008976450518")
		pin(t, m, "vcc_range", "%.12f", "1.485347125556")
	})
	t.Run("absent when undefined", func(t *testing.T) {
		// A bare device browning out 50 times: no thresholds, no tracker.
		m := metrics(t, gateSpec(t, "eneutral-duty-cycle", "", false))
		for _, key := range []string{"v_h", "v_r", "track_err", "vcc_range"} {
			if v, ok := m[key]; ok {
				t.Errorf("ungoverned bare-device run reports %s = %g", key, v)
			}
		}
		pin(t, m, "longest_on", "%.9f", "0.008795000")
		// Under fast-forward a governor observes hop boundaries only.
		ff := gateSpec(t, "powerneutral-storage-sweep", "0.2", true)
		ff.Sweep = nil
		m = metrics(t, ff)
		for _, key := range []string{"track_err", "vcc_range"} {
			if v, ok := m[key]; ok {
				t.Errorf("fast-forwarded governed run reports %s = %g", key, v)
			}
		}
	})
}

// TestTrackingUsesTheLabStep: a governed spec that leaves dt unset runs
// at the lab's default step, and its eq. (3) tracker must integrate over
// that step, so it reports exactly what the same spec with that step
// written out reports.
func TestTrackingUsesTheLabStep(t *testing.T) {
	unset := gateSpec(t, "powerneutral-storage-sweep", "0.2", false)
	unset.Sweep, unset.Dt = nil, 0
	explicit := unset.Clone()
	explicit.Dt = Value(lab.DefaultDt)
	var got [2]map[string]float64
	for i, sp := range []*Spec{unset, explicit} {
		rep, err := RunModel(sp, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got[i] = rep.Cases[0].Metrics
	}
	if _, ok := got[1]["track_err"]; !ok {
		t.Fatal("the governed run reports no track_err; the comparison would be vacuous")
	}
	for _, key := range []string{"track_err", "vcc_range"} {
		if got[0][key] != got[1][key] {
			t.Errorf("%s: dt unset %g, dt %g s %g", key, got[0][key], lab.DefaultDt, got[1][key])
		}
	}
}
