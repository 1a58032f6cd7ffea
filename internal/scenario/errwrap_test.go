package scenario

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/taskburst"
)

// TestErrfPreservesCauseChain pins the %w discipline the errfmt
// analyzer enforces: an error threaded through the spec's errf helper
// must stay visible to errors.As/errors.Is, not collapse to text. The
// probe is the sweep-checkpoint path — a corrupt checkpoint's
// *json.SyntaxError has to survive the "sweep checkpoint:" wrap.
func TestErrfPreservesCauseChain(t *testing.T) {
	sp, err := Parse([]byte(`{"name":"m","model":"mpsoc",
		"source":{"name":"const-power","params":{"p":2}},
		"duration":600,"dt":1,
		"sweep":[{"param":"model.scale","values":[1,2]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LookupModel("mpsoc")
	if err != nil {
		t.Fatal(err)
	}
	_, err = newEngine(m, sp, RunOptions{}, []byte("{corrupt"))
	if err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	var syn *json.SyntaxError
	if !errors.As(err, &syn) {
		t.Fatalf("json.SyntaxError lost in wrap chain: %v", err)
	}
	if !strings.Contains(err.Error(), "sweep checkpoint") {
		t.Fatalf("wrap context missing: %v", err)
	}
}

// TestApplyUnknownParamListsOptions pins the registry contract on the
// sweep-axis errors: an unknown name must name its valid alternatives.
func TestApplyUnknownParamListsOptions(t *testing.T) {
	var s Spec
	for _, param := range []string{"bogus", "bogus.key"} {
		err := s.Apply(param, 1.0)
		if err == nil {
			t.Fatalf("Apply(%q) accepted", param)
		}
		if !strings.Contains(err.Error(), "valid:") {
			t.Errorf("Apply(%q) error lists no options: %v", param, err)
		}
	}
}

// TestTaskburstMetricsOmitEnergyDrawnWhenUndefined pins the
// ModelCase.Metrics contract on the one computed-by-division metric:
// an eta of zero (unreachable through Validate, reachable through a
// hand-built params map) must omit energy_drawn, never store ±Inf.
func TestTaskburstMetricsOmitEnergyDrawnWhenUndefined(t *testing.T) {
	n := &taskburst.Node{VFire: 3, VFloor: 2, Events: []float64{0.1, 0.2}}

	m := taskburstMetrics(n, registry.Params{"taskenergy": 1e-6, "eta": 0.5}, 1)
	if got, ok := m["energy_drawn"]; !ok || math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("energy_drawn = %v, %v; want finite value present", got, ok)
	}

	m = taskburstMetrics(n, registry.Params{"taskenergy": 1e-6, "eta": 0}, 1)
	if got, ok := m["energy_drawn"]; ok {
		t.Fatalf("energy_drawn = %v present with eta=0; want key omitted", got)
	}
	if _, err := json.Marshal(m); err != nil {
		t.Fatalf("metrics map not JSON-encodable: %v", err)
	}
}
