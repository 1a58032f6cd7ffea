package result

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

const singleSpec = `{
	"name": "tiny",
	"workload": "fib24",
	"storage": {"c": "10u"},
	"source": {"name": "dc"},
	"duration": 0.002
}`

const sweepSpec = `{
	"name": "tiny-sweep",
	"workload": "fib24",
	"storage": {"c": "10u"},
	"source": {"name": "dc"},
	"duration": 0.002,
	"sweep": [{"param": "c", "values": ["4.7u", "10u"]}]
}`

func parse(t *testing.T, src string) *scenario.Spec {
	t.Helper()
	sp, err := scenario.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestRunSpecSingle(t *testing.T) {
	sp := parse(t, singleSpec)
	var done, total int
	rep, err := scenario.RunModel(sp, scenario.RunOptions{Progress: func(d, n int) { done, total = d, n }})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sweep {
		t.Error("single spec reported as sweep")
	}
	if done != 1 || total != 1 {
		t.Errorf("progress = %d/%d, want 1/1", done, total)
	}
	if !strings.HasPrefix(rep.Text, "scenario tiny: fib24 on dc, runtime=none, C=10µF, 0.002s\n") {
		t.Errorf("title line wrong:\n%s", rep.Text)
	}
	if !strings.Contains(rep.Text, "  completions:        ") {
		t.Errorf("summary missing:\n%s", rep.Text)
	}
	if len(rep.Cases) != 1 || rep.Cases[0].Result.Completions == 0 {
		t.Errorf("cases = %+v", rep.Cases)
	}
	if rep.SimSeconds != 0.002 {
		t.Errorf("SimSeconds = %g", rep.SimSeconds)
	}
	if !strings.HasPrefix(rep.SpecHash, "sha256:") {
		t.Errorf("SpecHash = %q", rep.SpecHash)
	}
	if rep.Trace != nil {
		t.Error("trace captured without RunOptions.Trace")
	}
}

func TestRunSpecIsDeterministic(t *testing.T) {
	// The cache serves one job's report to later identical submissions,
	// which is only sound if re-running the spec reproduces it exactly.
	a, err := scenario.RunModel(parse(t, sweepSpec), scenario.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.RunModel(parse(t, sweepSpec), scenario.RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text {
		t.Errorf("reports differ across runs/worker counts:\n%s\n%s", a.Text, b.Text)
	}
	if a.SpecHash != b.SpecHash {
		t.Errorf("hashes differ: %s vs %s", a.SpecHash, b.SpecHash)
	}
}

func TestRunSpecSweep(t *testing.T) {
	sp := parse(t, sweepSpec)
	var last int
	rep, err := scenario.RunModel(sp, scenario.RunOptions{Progress: func(d, n int) { last = n }})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sweep || len(rep.Cases) != 2 {
		t.Fatalf("sweep=%v cases=%d", rep.Sweep, len(rep.Cases))
	}
	if last != 2 {
		t.Errorf("progress total = %d, want 2", last)
	}
	for _, frag := range []string{"scenario tiny-sweep: sweep over c, 2 cases\n", "c=4.7µF", "c=10µF"} {
		if !strings.Contains(rep.Text, frag) {
			t.Errorf("report missing %q:\n%s", frag, rep.Text)
		}
	}
	if rep.SimSeconds != 0.004 {
		t.Errorf("SimSeconds = %g, want 0.004", rep.SimSeconds)
	}
}

func TestRunSpecTraceCarriesSpecHash(t *testing.T) {
	sp := parse(t, singleSpec)
	rep, err := scenario.RunModel(sp, scenario.RunOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	csv := traceCSV(t, rep)
	head := "# spec-hash: " + rep.SpecHash + "\n"
	if !strings.HasPrefix(string(csv), head) {
		t.Errorf("trace header wrong:\n%.120s", csv)
	}
	if !strings.Contains(string(csv), "t,vcc(V)") {
		t.Errorf("trace CSV header missing:\n%.200s", csv)
	}
}

func TestRunSpecCancelBeforeStart(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	if _, err := scenario.RunModel(parse(t, singleSpec), scenario.RunOptions{Cancel: cancel}); !errors.Is(err, sweep.ErrCanceled) {
		t.Errorf("single: err = %v, want ErrCanceled", err)
	}
	if _, err := scenario.RunModel(parse(t, sweepSpec), scenario.RunOptions{Cancel: cancel}); !errors.Is(err, sweep.ErrCanceled) {
		t.Errorf("sweep: err = %v, want ErrCanceled", err)
	}
}

// Analytic-model specs, one per registered non-lab family. Cheap enough
// to run in every test.
const mpsocSpec = `{
	"name": "tiny-mpsoc",
	"model": "mpsoc",
	"source": {"name": "const-power", "params": {"p": 3}},
	"duration": 600,
	"dt": 1
}`

const taskburstSpec = `{
	"name": "tiny-taskburst",
	"model": "taskburst",
	"storage": {"c": "6m"},
	"source": {"name": "const-power", "params": {"p": "2m"}},
	"params": {"taskenergy": "6m"},
	"duration": 30,
	"dt": "1m"
}`

const eneutralSpec = `{
	"name": "tiny-eneutral",
	"model": "eneutral",
	"source": {"name": "const-power", "params": {"p": "1m"}},
	"params": {"pactive": "5m", "window": 900},
	"duration": 3600,
	"dt": 1
}`

// TestRunSpecModels drives every analytic model through the same RunModel
// path the CLI and daemon share: a non-empty deterministic report, a
// captured trace with the spec-hash header, and prompt cancellation.
func TestRunSpecModels(t *testing.T) {
	cases := []struct {
		name, spec, firstLine, traceCol string
	}{
		{"mpsoc", mpsocSpec, "scenario tiny-mpsoc: mpsoc power-neutral governor on const-power, 600s", "budget(W)"},
		{"taskburst", taskburstSpec, "scenario tiny-taskburst: task-burst charge-fire on const-power, C=6mF, 30s", "vcap(V)"},
		{"eneutral", eneutralSpec, "scenario tiny-eneutral: energy-neutral duty cycling on const-power, 3600s", "soc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := parse(t, tc.spec)
			var done, total int
			rep, err := scenario.RunModel(sp, scenario.RunOptions{Trace: true, Progress: func(d, n int) { done, total = d, n }})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(rep.Text, tc.firstLine+"\n") {
				t.Errorf("report starts with %q, want %q", strings.SplitN(rep.Text, "\n", 2)[0], tc.firstLine)
			}
			if done != 1 || total != 1 {
				t.Errorf("progress = %d/%d, want 1/1", done, total)
			}
			if len(rep.Cases) != 1 || rep.Cases[0].Name != sp.Name {
				t.Errorf("cases = %+v", rep.Cases)
			}
			if rep.SimSeconds != float64(sp.Duration) {
				t.Errorf("SimSeconds = %g, want %g", rep.SimSeconds, float64(sp.Duration))
			}
			csv := traceCSV(t, rep)
			wantHdr := "# spec-hash: " + rep.SpecHash + "\n"
			if !strings.HasPrefix(string(csv), wantHdr) {
				t.Errorf("trace missing spec-hash header:\n%.80s", csv)
			}
			if !strings.Contains(string(csv), tc.traceCol) {
				t.Errorf("trace missing %q column:\n%.200s", tc.traceCol, csv)
			}

			// Deterministic: an identical second run renders identical bytes.
			rep2, err := scenario.RunModel(parse(t, tc.spec), scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep2.Text != rep.Text {
				t.Errorf("model output not deterministic:\n%s\n---\n%s", rep.Text, rep2.Text)
			}

			// A pre-closed cancel channel stops the run before it starts.
			cancel := make(chan struct{})
			close(cancel)
			if _, err := scenario.RunModel(parse(t, tc.spec), scenario.RunOptions{Cancel: cancel}); !errors.Is(err, sweep.ErrCanceled) {
				t.Errorf("canceled run: got %v, want ErrCanceled", err)
			}
		})
	}
}

// TestRunSpecModelSweep pins the analytic models' sweep path: a grid
// over a model param renders the generic comparison table.
func TestRunSpecModelSweep(t *testing.T) {
	sp := parse(t, `{
		"name": "burst-sizes",
		"model": "taskburst",
		"storage": {"c": "6m"},
		"source": {"name": "const-power", "params": {"p": "2m"}},
		"duration": 30,
		"dt": "1m",
		"sweep": [{"param": "model.taskenergy", "values": ["1m", "6m"]}]
	}`)
	var last int
	rep, err := scenario.RunModel(sp, scenario.RunOptions{Progress: func(d, n int) { last = n }})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sweep || len(rep.Cases) != 2 || last != 2 {
		t.Fatalf("sweep shape: sweep=%v cases=%d total=%d", rep.Sweep, len(rep.Cases), last)
	}
	if !strings.HasPrefix(rep.Text, "scenario burst-sizes: sweep over model.taskenergy, 2 cases\n") {
		t.Errorf("sweep header wrong:\n%s", rep.Text)
	}
	for _, frag := range []string{"case", "events", "rate", "v-fire", "first-fire"} {
		if !strings.Contains(rep.Text, frag) {
			t.Errorf("sweep table missing %q:\n%s", frag, rep.Text)
		}
	}
	if rep.SimSeconds != 60 {
		t.Errorf("SimSeconds = %g, want 60 (2 cases × 30s)", rep.SimSeconds)
	}
	// The smaller task fires more often: the table rows must differ.
	lines := strings.Split(strings.TrimRight(rep.Text, "\n"), "\n")
	if len(lines) != 4 || lines[2] == lines[3] {
		t.Errorf("sweep rows should differ:\n%s", rep.Text)
	}
}
