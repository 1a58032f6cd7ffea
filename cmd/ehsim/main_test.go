package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// runCLI invokes the command's entry point with captured output and an
// empty stdin.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return runCLIStdin(t, "", args...)
}

// runCLIStdin is runCLI with stdin content.
func runCLIStdin(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestListEnumeratesRegistries(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, frag := range []string{
		"models:", "workloads:", "sources:", "runtimes:", "governors:",
		"lab", "mpsoc", "taskburst", "eneutral", "taskenergy=0.001",
		"fft64", "wind", "hibernus-pn", "hillclimb", "margin=1.1",
		"metrics:", "energy_per_op(J)", "mean_fps(fps)", "first_fire(s)", "worst_window(ratio)",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("-list output missing %q", frag)
		}
	}
}

func TestScenarioSingleRunSmoke(t *testing.T) {
	spec := `{
		"name": "cli-smoke",
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 0.002
	}`
	path := filepath.Join(t.TempDir(), "smoke.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t, "-scenario", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "scenario cli-smoke") || !strings.Contains(out, "completions:") {
		t.Errorf("unexpected output:\n%s", out)
	}
	if strings.Contains(out, "completions:        0 ") {
		t.Errorf("smoke scenario should complete at least once:\n%s", out)
	}
}

func TestScenarioSweepRunSmoke(t *testing.T) {
	spec := `{
		"name": "cli-sweep-smoke",
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 0.002,
		"sweep": [{"param": "c", "values": ["4.7u", "10u"]}]
	}`
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t, "-scenario", path, "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, frag := range []string{"sweep over c, 2 cases", "c=4.7µF", "c=10µF"} {
		if !strings.Contains(out, frag) {
			t.Errorf("sweep output missing %q:\n%s", frag, out)
		}
	}
}

func TestScenarioErrorsAreActionable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	spec := `{"name":"bad","workload":"nope","storage":{"c":"10u"},
		"source":{"name":"dc"},"duration":1}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errb := runCLI(t, "-scenario", path)
	if code == 0 {
		t.Fatal("expected failure")
	}
	if !strings.Contains(errb, `unknown workload "nope"`) || !strings.Contains(errb, "fib24") {
		t.Errorf("stderr should carry the registry's actionable message, got: %s", errb)
	}
	code, _, errb = runCLI(t, "-scenario", filepath.Join(t.TempDir(), "missing.json"))
	if code == 0 || !strings.Contains(errb, "missing.json") {
		t.Errorf("missing file: code=%d stderr=%s", code, errb)
	}
}

func TestExampleSpecsParseAndRunHeadless(t *testing.T) {
	// Every shipped example spec must at least load and compile; the two
	// fast ones are executed end to end (CI runs the full matrix).
	matches, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(matches) < 4 {
		t.Fatalf("expected ≥4 example specs, got %d (%v)", len(matches), err)
	}
	for _, m := range matches {
		name := filepath.Base(m)
		if name != "fig7-rectified-sine-hibernus.json" && name != "eneutral-duty-cycle.json" {
			continue
		}
		code, out, errb := runCLI(t, "-scenario", m)
		if code != 0 {
			t.Errorf("%s: exit %d, stderr: %s", name, code, errb)
			continue
		}
		if len(strings.TrimSpace(out)) == 0 {
			t.Errorf("%s: empty output", name)
		}
	}
}

func TestScenarioFromStdin(t *testing.T) {
	spec := `{
		"name": "stdin-smoke",
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 0.002
	}`
	code, out, errb := runCLIStdin(t, spec, "-scenario", "-")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "scenario stdin-smoke") || !strings.Contains(out, "completions:") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestScenarioOutputMatchesSharedResultPath(t *testing.T) {
	// The CLI must print exactly what scenario.RunModel renders — the same
	// bytes ehsimd serves — so the two front-ends cannot drift.
	spec := `{
		"name": "pin",
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 0.002
	}`
	path := filepath.Join(t.TempDir(), "pin.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t, "-scenario", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	sp, err := scenario.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != rep.Text {
		t.Errorf("CLI output diverges from scenario.RunModel:\nCLI:\n%s\nRunModel:\n%s", out, rep.Text)
	}
}

func TestScenarioTraceCarriesSpecHash(t *testing.T) {
	spec := `{
		"name": "trace-hash",
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 0.002
	}`
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	tracePath := filepath.Join(dir, "vcc.csv")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errb := runCLI(t, "-scenario", specPath, "-trace", tracePath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	sp, err := scenario.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	want := "# spec-hash: " + hash + "\n"
	if !strings.HasPrefix(string(data), want) {
		t.Errorf("trace file should open with %q, got:\n%.120s", want, data)
	}
	if !strings.Contains(string(data), "t,vcc(V)") {
		t.Errorf("trace CSV body missing:\n%.200s", data)
	}
}

// TestTraceHashMatchesDaemon pins the three places a traced run states
// its spec's content address to one value: the CLI's `# spec-hash:`
// trace line, the daemon's X-Spec-Hash header on /result and /trace,
// and the header line of the daemon's /trace body. The CLI and the
// daemon's /trace take the line from the report (scenario's
// ModelReport.SpecHash); the header comes from the daemon's own hash of
// the submitted body. The two traces must also match byte for byte.
func TestTraceHashMatchesDaemon(t *testing.T) {
	spec := `{"name":"trace-hash-daemon","workload":"fib24","storage":{"c":"10u"},"source":{"name":"dc"},"duration":0.002}`
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	tracePath := filepath.Join(dir, "vcc.csv")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errb := runCLI(t, "-scenario", specPath, "-trace", tracePath); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	cliTrace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := scenario.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if want := "# spec-hash: " + hash + "\n"; !bytes.HasPrefix(cliTrace, []byte(want)) {
		t.Fatalf("CLI trace should open with %q, got:\n%.120s", want, cliTrace)
	}

	srv := service.New(service.Config{}).Start()
	ts := httptest.NewServer(srv.Handler())
	defer srv.Drain()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); st.State != service.JobDone; time.Sleep(2 * time.Millisecond) {
		if st.State == service.JobFailed || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %+v", st)
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, route := range []string{"/result", "/trace"} {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + route)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v: %s", route, r.StatusCode, err, body)
		}
		if got := r.Header.Get("X-Spec-Hash"); got != hash {
			t.Errorf("%s X-Spec-Hash = %q, want the CLI trace's %q", route, got, hash)
		}
		if route == "/trace" && !bytes.Equal(body, cliTrace) {
			t.Errorf("/trace body differs from the CLI trace file:\ndaemon:\n%.200s\nCLI:\n%.200s", body, cliTrace)
		}
	}
}

// TestFlagRunMatchesScenario pins the flag form as shorthand for a spec:
// a flag invocation and -scenario on the equivalent spec must print the
// same bytes and write the same trace file, for a single fast-forwarded
// run and for a -c storage sweep.
func TestFlagRunMatchesScenario(t *testing.T) {
	for _, tc := range []struct {
		name   string
		flags  []string
		spec   string
		traced bool
	}{
		{
			name: "single-ff",
			flags: []string{"-workload", "fib24", "-supply", "square", "-runtime", "hibernus",
				"-c", "10u", "-dur", "0.4", "-ff"},
			spec: `{"name": "ehsim", "workload": "fib24",
				"storage": {"c": "10u", "leakr": "50k"},
				"source": {"name": "square"}, "runtime": {"name": "hibernus"},
				"duration": 0.4, "fastforward": true}`,
			traced: true,
		},
		{
			name: "sweep",
			flags: []string{"-workload", "fib24", "-supply", "sine20", "-runtime", "quickrecall",
				"-c", "10u,47u", "-dur", "0.2"},
			spec: `{"name": "ehsim", "workload": "fib24",
				"storage": {"c": "10u", "leakr": "50k"},
				"source": {"name": "rectified-sine"}, "runtime": {"name": "quickrecall"},
				"duration": 0.2,
				"sweep": [{"param": "c", "values": ["10u", "47u"]}]}`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			specPath := filepath.Join(dir, "spec.json")
			tracePath := filepath.Join(dir, "vcc.csv")
			if err := os.WriteFile(specPath, []byte(tc.spec), 0o644); err != nil {
				t.Fatal(err)
			}
			// Both runs write the same trace path, so the "trace written
			// to" line matches too; each file is read before the next run
			// overwrites it.
			runTraced := func(args ...string) (string, []byte) {
				t.Helper()
				os.Remove(tracePath)
				code, out, errb := runCLI(t, append(args, "-trace", tracePath)...)
				if code != 0 {
					t.Fatalf("%v: exit %d, stderr: %s", args, code, errb)
				}
				data, _ := os.ReadFile(tracePath)
				return out, data
			}
			flagOut, flagTrace := runTraced(tc.flags...)
			specOut, specTrace := runTraced("-scenario", specPath)
			if flagOut != specOut {
				t.Errorf("stdout differs:\nflags:\n%s\n-scenario:\n%s", flagOut, specOut)
			}
			if !bytes.Equal(flagTrace, specTrace) {
				t.Errorf("trace files differ (%d vs %d bytes)", len(flagTrace), len(specTrace))
			}
			// A sweep ignores -trace on both paths; a single run writes a
			// trace stamped with the spec's hash.
			if tc.traced != (flagTrace != nil) ||
				(tc.traced && !bytes.HasPrefix(flagTrace, []byte("# spec-hash: sha256:"))) {
				t.Errorf("traced=%v, unexpected trace file:\n%.120s", tc.traced, flagTrace)
			}
			if !strings.HasPrefix(flagOut, "scenario ehsim: ") || !strings.Contains(flagOut, "completions") {
				t.Errorf("unexpected report:\n%s", flagOut)
			}
		})
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, errb := runCLI(t, "-h")
	if code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
	if !strings.Contains(errb, "-scenario") {
		t.Errorf("usage should mention -scenario, got: %s", errb)
	}
}
