package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/lab"
	"repro/internal/powerneutral"
	"repro/internal/programs"
	"repro/internal/source"
	"repro/internal/sweep"
	"repro/internal/transient"
)

// smokeSpec returns a minimal valid spec that runs in a few milliseconds.
func smokeSpec() *Spec {
	return &Spec{
		Name:     "smoke",
		Workload: "fib24",
		Storage:  StorageSpec{C: 10e-6},
		Source:   SourceSpec{Name: "dc"},
		Duration: 0.002,
	}
}

func TestParseFullSpec(t *testing.T) {
	data := []byte(`{
		"name": "parse-test",
		"description": "d",
		"paper": "p",
		"workload": "fft64",
		"device": {"profile": "default", "freqindex": 2},
		"storage": {"c": "10u", "v0": 1.5, "leakr": "50k"},
		"source": {"name": "square", "params": {"ontime": "4m"}},
		"runtime": {"name": "hibernus", "params": {"margin": 1.05}},
		"governor": {"policy": "hillclimb", "params": {"vtarget": 2.9}},
		"duration": 0.5,
		"dt": "5u",
		"fastforward": true,
		"sweep": [{"param": "c", "values": ["4.7u", "10u"]}]
	}`)
	s, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Storage.C != Value(10e-6) || s.Storage.LeakR != Value(50e3) {
		t.Errorf("SI-suffixed storage values: %+v", s.Storage)
	}
	if s.Device.FreqIndex == nil || *s.Device.FreqIndex != 2 {
		t.Errorf("freqindex: %+v", s.Device)
	}
	if s.Source.Params["ontime"] != Value(4e-3) {
		t.Errorf("source params: %+v", s.Source.Params)
	}
	if s.Dt != Value(5e-6) || !s.FastForward || !s.HasSweep() {
		t.Errorf("scalar fields: %+v", s)
	}
}

func TestParseRejectsUnknownField(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","workload":"fib24","storage":{"c":1e-5},
		"source":{"name":"dc"},"duration":1,"workers":4}`))
	if err == nil || !strings.Contains(err.Error(), "workers") {
		t.Errorf("unknown top-level field: got %v", err)
	}
	_, err = Parse([]byte(`{"name":"x","workload":"fib24","storage":{"cap":1e-5},
		"source":{"name":"dc"},"duration":1}`))
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("unknown nested field: got %v", err)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	a := `{"name":"a","workload":"fib24","storage":{"c":1e-5},"source":{"name":"dc"},"duration":1}`
	b := `{"name":"b","workload":"fft64","storage":{"c":1e-5},"source":{"name":"dc"},"duration":2}`
	for _, tc := range []struct {
		name, data string
		ok         bool
	}{
		{"two specs", a + b, false},
		{"spec then junk", a + " x", false},
		{"spec then stray brace", a + "}", false},
		{"trailing newline", a + "\n", true},
		{"surrounding whitespace", " \t\r\n" + a + " \t\r\n", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := Parse([]byte(tc.data))
			if tc.ok {
				if err != nil || sp.Name != "a" {
					t.Fatalf("got %v, %v; want spec a", sp, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "after the spec") {
				t.Fatalf("got %v, want a trailing-data error", err)
			}
		})
	}
}

// TestValidateRejectsBadFreqIndex pins the DFS level range: the table
// has six levels (0–5), and a level outside it, or a fractional sweep
// value, is an error rather than a run at some other frequency.
func TestValidateRejectsBadFreqIndex(t *testing.T) {
	const base = `"name":"f","workload":"fft64","storage":{"c":1e-5},"source":{"name":"dc"},"duration":0.1`
	for _, tc := range []struct {
		name, extra string
		want        string // "" = accepted
	}{
		{"device level 0", `"device":{"freqindex":0}`, ""},
		{"device top level", `"device":{"freqindex":5}`, ""},
		{"device above the table", `"device":{"freqindex":99}`, "out of range"},
		{"device just above the table", `"device":{"freqindex":6}`, "out of range"},
		{"device negative", `"device":{"freqindex":-1}`, "out of range"},
		{"unified device above the table", `"device":{"profile":"unified-nv","freqindex":6}`, "out of range"},
		{"sweep in range", `"sweep":[{"param":"freqindex","values":[3,5]}]`, ""},
		{"sweep negative", `"sweep":[{"param":"freqindex","values":[3,-1]}]`, "out of range"},
		{"sweep above the table", `"sweep":[{"param":"freqindex","values":[99]}]`, "out of range"},
		{"sweep fraction", `"sweep":[{"param":"freqindex","values":[3.5]}]`, "not an integer"},
		{"sweep huge", `"sweep":[{"param":"freqindex","values":[1e300]}]`, "not an integer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte("{" + base + "," + tc.extra + "}"))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected a valid level: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestValidateErrorsAreActionable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   []string
	}{
		{"unknown workload", func(s *Spec) { s.Workload = "fft63" },
			[]string{`unknown workload "fft63"`, "fft64"}},
		{"unknown source", func(s *Spec) { s.Source.Name = "windmill" },
			[]string{`unknown source "windmill"`, "wind"}},
		{"unknown source param", func(s *Spec) { s.Source.Params = map[string]Value{"volt": 3} },
			[]string{`"volt"`, "valid"}},
		{"unknown runtime", func(s *Spec) { s.Runtime.Name = "hibernator" },
			[]string{`unknown runtime "hibernator"`, "hibernus"}},
		{"unknown governor", func(s *Spec) { s.Governor = &GovernorSpec{Policy: "pid"} },
			[]string{`unknown governor "pid"`, "hillclimb"}},
		{"bad profile", func(s *Spec) { s.Device.Profile = "msp430" },
			[]string{"profile", "unified-nv"}},
		{"zero C", func(s *Spec) { s.Storage.C = 0 }, []string{"storage.c"}},
		{"zero duration", func(s *Spec) { s.Duration = 0 }, []string{"duration"}},
		{"empty axis", func(s *Spec) { s.Sweep = []Axis{{Param: "c"}} },
			[]string{"values or names"}},
		{"axis both kinds", func(s *Spec) {
			s.Sweep = []Axis{{Param: "c", Values: []Value{1e-6}, Names: []string{"x"}}}
		}, []string{"mutually exclusive"}},
		{"unknown axis param", func(s *Spec) {
			s.Sweep = []Axis{{Param: "capacitance", Values: []Value{1e-6}}}
		}, []string{`"capacitance"`}},
		{"axis probes points", func(s *Spec) {
			s.Sweep = []Axis{{Param: "runtime", Names: []string{"hibernus", "hibernator"}}}
		}, []string{`unknown runtime "hibernator"`}},
		{"axis probes every point, not just the last", func(s *Spec) {
			s.Sweep = []Axis{{Param: "runtime", Names: []string{"hibernator", "hibernus"}}}
		}, []string{`unknown runtime "hibernator"`}},
		{"axis probes numeric points", func(s *Spec) {
			s.Sweep = []Axis{{Param: "c", Values: []Value{-1e-6, 1e-6}}}
		}, []string{"storage.c"}},
		{"duplicate axis", func(s *Spec) {
			s.Sweep = []Axis{
				{Param: "c", Values: []Value{1e-6}},
				{Param: "c", Values: []Value{2e-6}},
			}
		}, []string{"duplicate"}},
		{"duplicate axis via alias", func(s *Spec) {
			s.Sweep = []Axis{
				{Param: "c", Values: []Value{1e-6}},
				{Param: "storage.c", Values: []Value{2e-6}},
			}
		}, []string{"duplicate"}},
		{"source builder rejects degenerate params", func(s *Spec) {
			s.Source = SourceSpec{Name: "rf", Params: map[string]Value{"period": 0}}
		}, []string{"period"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := smokeSpec()
			tc.mutate(s)
			err := s.Validate()
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

func TestSetupRoundTripRuns(t *testing.T) {
	s, err := smokeSpec().Setup()
	if err != nil {
		t.Fatal(err)
	}
	res, err := lab.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions == 0 || res.WrongResults != 0 {
		t.Errorf("smoke run: %d completions, %d wrong", res.Completions, res.WrongResults)
	}
}

// TestEveryRegistryNameCompiles is the acceptance check: every builtin
// workload, source, runtime and governor is constructible by name
// through a spec.
func TestEveryRegistryNameCompiles(t *testing.T) {
	for _, w := range programs.Names() {
		s := smokeSpec()
		s.Workload = w
		if _, err := s.Setup(); err != nil {
			t.Errorf("workload %q: %v", w, err)
		}
	}
	for _, src := range source.Names() {
		s := smokeSpec()
		s.Source = SourceSpec{Name: src}
		if _, err := s.Setup(); err != nil {
			t.Errorf("source %q: %v", src, err)
		}
	}
	for _, rt := range transient.RuntimeNames() {
		s := smokeSpec()
		s.Runtime = RuntimeSpec{Name: rt}
		st, err := s.Setup()
		if err != nil {
			t.Errorf("runtime %q: %v", rt, err)
			continue
		}
		if rt == "none" && st.MakeRuntime != nil {
			t.Error("runtime none should compile to a nil factory")
		}
		if rt != "none" && st.MakeRuntime == nil {
			t.Errorf("runtime %q compiled to a nil factory", rt)
		}
	}
	for _, g := range powerneutral.GovernorNames() {
		s := smokeSpec()
		s.Governor = &GovernorSpec{Policy: g}
		st, err := s.Setup()
		if err != nil {
			t.Errorf("governor %q: %v", g, err)
			continue
		}
		if st.OnTick == nil {
			t.Errorf("governor %q: no OnTick hook compiled", g)
		}
	}
}

func TestUnifiedNVProfileFollowsRuntime(t *testing.T) {
	s := smokeSpec()
	s.Runtime = RuntimeSpec{Name: "quickrecall"}
	st, err := s.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Params.UnifiedNV {
		t.Error("quickrecall should select the unified-NV device")
	}
	if st.Workload.RAMBase != programs.UnifiedNVLayout().RAMBase {
		t.Error("quickrecall should regenerate the workload for the unified layout")
	}
	// An explicit profile overrides the runtime's preference.
	s.Device.Profile = "default"
	st, err = s.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if st.Params.UnifiedNV {
		t.Error("explicit default profile should win over the runtime")
	}
}

func TestGridAndSetupAt(t *testing.T) {
	s := smokeSpec()
	s.Runtime = RuntimeSpec{Name: "hibernus"}
	s.Sweep = []Axis{
		{Param: "c", Values: []Value{4.7e-6, 10e-6}},
		{Param: "runtime", Names: []string{"hibernus", "quickrecall"}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	grid := s.Grid()
	if grid.Size() != 4 {
		t.Fatalf("grid size = %d, want 4", grid.Size())
	}
	cases := grid.Cases()
	if want := "c=4.7µF/runtime=hibernus"; cases[0].Name != want {
		t.Errorf("case 0 name = %q, want %q", cases[0].Name, want)
	}
	st, err := s.SetupAt(cases[3])
	if err != nil {
		t.Fatal(err)
	}
	if st.C != 10e-6 || !st.Params.UnifiedNV {
		t.Errorf("case 3 should be 10µF quickrecall: C=%g unified=%v", st.C, st.Params.UnifiedNV)
	}
	// The base spec must be untouched by per-case application.
	if s.Runtime.Name != "hibernus" || s.Storage.C != Value(10e-6) {
		t.Errorf("base spec mutated: %+v", s)
	}
}

func TestSweepAxisOverRuntimeParam(t *testing.T) {
	s := smokeSpec()
	s.Runtime = RuntimeSpec{Name: "hibernus"}
	s.Duration = 0.001
	s.Sweep = []Axis{{Param: "runtime.margin", Values: []Value{0.9, 1.1}}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	grid := s.Grid()
	results, err := sweep.MapGrid(nil, grid, func(c sweep.Case) (lab.Result, error) {
		st, err := s.SetupAt(c)
		if err != nil {
			return lab.Result{}, err
		}
		return lab.Run(st)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestValueUnmarshalForms(t *testing.T) {
	s, err := Parse([]byte(`{"name":"v","workload":"fib24",
		"storage":{"c":"330u","v0":2},"source":{"name":"dc"},"duration":"1m"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Storage.C != Value(330e-6) || s.Storage.V0 != 2 || s.Duration != Value(1e-3) {
		t.Errorf("mixed value forms: %+v", s)
	}
}

// TestHibernusPeriphWithoutBankIsHibernus: on a workload that drives no
// peripheral bank there is no aux state to snapshot, so the
// peripheral-aware runtime must reproduce hibernus' lab.Result exactly.
func TestHibernusPeriphWithoutBankIsHibernus(t *testing.T) {
	var res [2]lab.Result
	for i, rt := range []string{"hibernus", "hibernus-periph"} {
		rep, err := RunModel(&Spec{
			Name:     "no-bank",
			Workload: "sieve3000",
			Storage:  StorageSpec{C: 10e-6, LeakR: 50e3},
			Source:   SourceSpec{Name: "square"},
			Runtime:  RuntimeSpec{Name: rt},
			Duration: 1,
		}, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		res[i] = rep.Cases[0].Lab
	}
	if res[0].Completions == 0 || res[0].Stats.Restores == 0 {
		t.Fatalf("hibernus completed %d and restored %d times; the comparison would be vacuous",
			res[0].Completions, res[0].Stats.Restores)
	}
	if res[0].Bank {
		t.Fatal("sieve3000 ran with a peripheral bank")
	}
	if !reflect.DeepEqual(res[1], res[0]) {
		t.Errorf("hibernus-periph %+v\nhibernus        %+v", res[1], res[0])
	}
}
