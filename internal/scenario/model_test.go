package scenario

import (
	"strings"
	"testing"

	"repro/internal/mpsoc"
)

// mpsocSpec returns a minimal valid mpsoc-model spec.
func mpsocSpec() string {
	return `{"name":"m","model":"mpsoc","source":{"name":"const-power","params":{"p":2}},"duration":600,"dt":1}`
}

func TestModelRegistryListsAllFamilies(t *testing.T) {
	want := []string{"eneutral", "lab", "mpsoc", "taskburst"}
	got := ModelNames()
	if len(got) != len(want) {
		t.Fatalf("ModelNames() = %v, want %v", got, want)
	}
	for i, n := range want {
		if got[i] != n {
			t.Fatalf("ModelNames() = %v, want %v", got, want)
		}
		m, err := LookupModel(n)
		if err != nil || m.Desc() == "" {
			t.Errorf("model %q: lookup err=%v", n, err)
		}
	}
}

func TestModelNameDefaultsToLab(t *testing.T) {
	sp := mustParse(t, `{"name":"x","workload":"fib24","storage":{"c":"10u"},
		"source":{"name":"dc"},"duration":0.002}`)
	if sp.ModelName() != "lab" {
		t.Errorf("ModelName() = %q, want lab", sp.ModelName())
	}
	// The canonical encoding of a model-less spec must not grow a model
	// key: pre-model specs keep their content addresses byte-for-byte.
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(canon), `"model"`) || strings.Contains(string(canon), `"params"`) {
		t.Errorf("canonical encoding of a model-less spec leaks new fields:\n%s", canon)
	}
}

func TestExplicitLabModelChangesHashOnly(t *testing.T) {
	implicit := mustParse(t, `{"name":"x","workload":"fib24","storage":{"c":"10u"},
		"source":{"name":"dc"},"duration":0.002}`)
	explicit := mustParse(t, `{"name":"x","model":"lab","workload":"fib24","storage":{"c":"10u"},
		"source":{"name":"dc"},"duration":0.002}`)
	h1, err := implicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// The model name folds into the canonical JSON exactly when set
	// (the registry contract), so the two spellings are distinct cache
	// keys even though both dispatch to the lab engine.
	if h1 == h2 {
		t.Error("explicit model:lab must change the content hash")
	}
	if implicit.ModelName() != explicit.ModelName() {
		t.Error("both spellings must dispatch to the lab model")
	}
}

func TestModelValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want []string
	}{
		{"unknown model",
			`{"name":"x","model":"fpga","source":{"name":"pv"},"duration":1}`,
			[]string{`unknown model "fpga"`, "mpsoc", "taskburst", "eneutral", "lab"}},
		{"lab takes no model params",
			`{"name":"x","params":{"scale":2},"workload":"fib24","storage":{"c":"10u"},"source":{"name":"dc"},"duration":1}`,
			[]string{`"scale"`, "lab"}},
		{"mpsoc rejects workload",
			`{"name":"x","model":"mpsoc","workload":"fib24","source":{"name":"pv"},"duration":1}`,
			[]string{"mpsoc", "workload"}},
		{"mpsoc rejects runtime",
			`{"name":"x","model":"mpsoc","runtime":{"name":"hibernus"},"source":{"name":"pv"},"duration":1}`,
			[]string{"mpsoc", "runtime"}},
		{"mpsoc rejects governor",
			`{"name":"x","model":"mpsoc","governor":{"policy":"hillclimb"},"source":{"name":"pv"},"duration":1}`,
			[]string{"mpsoc", "governor"}},
		{"mpsoc rejects storage",
			`{"name":"x","model":"mpsoc","storage":{"c":"10u"},"source":{"name":"pv"},"duration":1}`,
			[]string{"mpsoc", "storage"}},
		{"mpsoc needs a power source",
			`{"name":"x","model":"mpsoc","source":{"name":"wind"},"duration":1}`,
			[]string{"power source", "voltage", "pv", "const-power"}},
		{"mpsoc unknown model param",
			`{"name":"x","model":"mpsoc","params":{"boards":2},"source":{"name":"pv"},"duration":1}`,
			[]string{`"boards"`, "scale"}},
		{"taskburst needs storage",
			`{"name":"x","model":"taskburst","source":{"name":"pv"},"duration":1}`,
			[]string{"storage.c"}},
		{"taskburst eq4 sizing must fit",
			`{"name":"x","model":"taskburst","storage":{"c":"1u"},"source":{"name":"pv"},"params":{"taskenergy":"6m"},"duration":1}`,
			[]string{"capacitor", "cannot hold"}},
		{"taskburst bad eta",
			`{"name":"x","model":"taskburst","storage":{"c":"6m"},"source":{"name":"pv"},"params":{"eta":1.5},"duration":1}`,
			[]string{"eta"}},
		{"taskburst v0 beyond rating",
			`{"name":"x","model":"taskburst","storage":{"c":"6m","v0":100},"source":{"name":"pv"},"duration":1}`,
			[]string{"storage.v0", "rating"}},
		{"mpsoc non-positive scale",
			`{"name":"x","model":"mpsoc","source":{"name":"pv"},"params":{"scale":-1},"duration":1}`,
			[]string{"scale", "positive"}},
		{"eneutral bad duty0",
			`{"name":"x","model":"eneutral","source":{"name":"pv"},"params":{"duty0":5},"duration":1}`,
			[]string{"duty0"}},
		{"eneutral non-positive pactive",
			`{"name":"x","model":"eneutral","source":{"name":"pv"},"params":{"pactive":0},"duration":1}`,
			[]string{"pactive"}},
		{"eneutral rejects device block",
			`{"name":"x","model":"eneutral","device":{"freqindex":1},"source":{"name":"pv"},"duration":1}`,
			[]string{"eneutral", "device"}},
		{"eneutral bad soc0",
			`{"name":"x","model":"eneutral","source":{"name":"pv"},"params":{"soc0":1.5},"duration":1}`,
			[]string{"soc0"}},
		{"eneutral unknown source still actionable",
			`{"name":"x","model":"eneutral","source":{"name":"windmill"},"duration":1}`,
			[]string{`unknown source "windmill"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.spec))
			if err == nil {
				t.Fatal("expected error")
			}
			for _, frag := range tc.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q should contain %q", err, frag)
				}
			}
		})
	}
}

func TestSetupRejectsNonLabModels(t *testing.T) {
	sp := mustParse(t, mpsocSpec())
	if _, err := sp.Setup(); err == nil || !strings.Contains(err.Error(), "lab") {
		t.Errorf("Setup on an mpsoc spec: got %v, want a lab-only error", err)
	}
}

func TestApplyModelParamAxis(t *testing.T) {
	sp := mustParse(t, `{"name":"x","model":"taskburst","storage":{"c":"6m"},
		"source":{"name":"const-power","params":{"p":"2m"}},"duration":2,
		"sweep":[{"param":"model.taskenergy","values":["1m","6m"]}]}`)
	grid := sp.Grid()
	if grid.Size() != 2 {
		t.Fatalf("grid size = %d, want 2", grid.Size())
	}
	cs, err := sp.At(grid.Cases()[1])
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(cs.Params["taskenergy"]); got != 6e-3 {
		t.Errorf("applied model param = %g, want 6e-3", got)
	}
	if sp.Params != nil && float64(sp.Params["taskenergy"]) == 6e-3 {
		t.Error("Apply mutated the base spec's params")
	}
	// Validation probes model-param axis points: a point the model's
	// Validate rejects must fail at parse time.
	_, err = Parse([]byte(`{"name":"x","model":"taskburst","storage":{"c":"6m"},
		"source":{"name":"const-power"},"duration":2,
		"sweep":[{"param":"model.eta","values":[0.7,9]}]}`))
	if err == nil || !strings.Contains(err.Error(), "eta") {
		t.Errorf("bad model-param axis point: got %v, want an eta error", err)
	}
}

// TestMpsocRunsShareXU4Table pins the once-per-process board table:
// every mpsoc run reads the frontier of mpsoc.XU4Table instead of
// enumerating the board again, and still gets its own Selector, whose
// Observe hook the run's tracing sets.
func TestMpsocRunsShareXU4Table(t *testing.T) {
	shared := mpsoc.XU4Table()
	var sels []*mpsoc.Selector
	for range 2 {
		sp, err := Parse([]byte(mpsocSpec()))
		if err != nil {
			t.Fatal(err)
		}
		run, err := mpsocModel{}.newRun(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := run.(*mpsocRun)
		if r.tab != shared || &r.sel.Frontier[0] != &shared.Frontier[0] || len(r.sel.Frontier) != len(shared.Frontier) {
			t.Fatal("mpsoc run does not read the shared XU4 table")
		}
		sels = append(sels, r.sel)
	}
	if sels[0] == sels[1] {
		t.Error("two mpsoc runs share one Selector")
	}
}
