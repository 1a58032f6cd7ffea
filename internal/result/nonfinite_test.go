package result

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// assertMetricsEncodable runs src, requires every metric finite and
// the keys in absent omitted, and round-trips the report through the
// CAS codec, which rejects a non-finite metric outright.
func assertMetricsEncodable(t *testing.T, src string, absent ...string) {
	t.Helper()
	rep, err := scenario.RunModel(parse(t, src), scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Cases[0].Metrics
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v; non-finite metrics must be omitted", k, v)
		}
	}
	for _, k := range absent {
		if v, ok := m[k]; ok {
			t.Errorf("metric %s = %v present; want it omitted", k, v)
		}
	}
	blob, err := EncodeReport(rep)
	if err != nil {
		t.Fatalf("EncodeReport: %v", err)
	}
	back, err := DecodeReport(blob)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if back.Text != rep.Text || !reflect.DeepEqual(back.Cases[0].Metrics, m) {
		t.Errorf("report did not survive the codec round trip")
	}
}

// TestMpsocMetricsOmitOverflowedBudget: a valid source scaled past
// MaxFloat64 makes the budget +Inf, so budget_w and peak_budget_w are
// dropped and the rest of the report still reaches the CAS.
func TestMpsocMetricsOmitOverflowedBudget(t *testing.T) {
	assertMetricsEncodable(t, `{"name":"mpsoc-inf","model":"mpsoc",
		"source":{"name":"const-power","params":{"p":1e308}},
		"params":{"scale":10},"duration":10,"dt":1}`,
		"budget_w", "peak_budget_w")
}

// TestEneutralMetricsOmitOverflowedHarvest: a source near MaxFloat64
// watts overflows the harvest sum to +Inf, so harvested is dropped and
// the rest of the report still reaches the CAS. Once an eq. 1 window
// completes, its imbalance ratio is NaN as well and is dropped too.
func TestEneutralMetricsOmitOverflowedHarvest(t *testing.T) {
	assertMetricsEncodable(t, `{"name":"eneutral-inf","model":"eneutral",
		"source":{"name":"const-power","params":{"p":1e308}},
		"params":{"batteryj":1e308},"duration":10,"dt":1}`,
		"harvested")
	assertMetricsEncodable(t, `{"name":"eneutral-inf-days","model":"eneutral",
		"source":{"name":"const-power","params":{"p":1e308}},
		"params":{"batteryj":1e308},"duration":259200,"dt":60}`,
		"harvested", "worst_window")
}

// TestLabMetricsOmitOverflowedHarvest: a bench supply near 1e200 V
// overflows the rail's harvest sum to +Inf, so harvested is dropped and
// the rest of the report, consumed and energy_per_op included, still
// reaches the CAS.
func TestLabMetricsOmitOverflowedHarvest(t *testing.T) {
	assertMetricsEncodable(t, `{"name":"lab-inf","workload":"fib24",
		"storage":{"c":"10u"},"source":{"name":"dc","params":{"v":1e200}},
		"duration":0.0001}`,
		"harvested")
}
