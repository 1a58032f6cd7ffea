package result

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func codecSpec(t testing.TB) *scenario.Spec {
	t.Helper()
	sp, err := scenario.Parse([]byte(`{
		"name": "codec-roundtrip",
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 0.002
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestReportCodecRoundTripsServedArtifacts(t *testing.T) {
	rep, err := scenario.RunModel(codecSpec(t), scenario.RunOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	// The service contract is byte identity of the served artifacts.
	if got.Text != rep.Text {
		t.Errorf("Text diverged across the codec:\n%s\n---\n%s", got.Text, rep.Text)
	}
	if !bytes.Equal(traceCSV(t, got), traceCSV(t, rep)) {
		t.Error("trace CSV diverged across the codec")
	}
	// v3 persists the columnar recorder itself, so cache-served reports
	// answer windowed trace queries without a recompute — and the
	// decoded recorder must window identically to the original.
	if got.Trace == nil {
		t.Fatal("decoded report lost its columnar trace")
	}
	var a, b strings.Builder
	if err := rep.Trace.WriteWindowCSV(&a, 0, 1, 16); err != nil {
		t.Fatal(err)
	}
	if err := got.Trace.WriteWindowCSV(&b, 0, 1, 16); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("windowed rendering diverged across the codec")
	}
	if got.SpecHash != rep.SpecHash || got.Sweep != rep.Sweep || got.SimSeconds != rep.SimSeconds {
		t.Errorf("metadata diverged: %+v vs %+v", got, rep)
	}
	if len(got.Cases) != len(rep.Cases) || got.Cases[0].Name != rep.Cases[0].Name {
		t.Errorf("case names diverged: %v", got.Cases)
	}
	// v2 persists the structured metrics, so a cache-served report can
	// still answer exploration objective queries.
	if len(got.Cases[0].Metrics) == 0 {
		t.Fatal("decoded report lost its case metrics")
	}
	for k, v := range rep.Cases[0].Metrics {
		if got.Cases[0].Metrics[k] != v {
			t.Errorf("metric %q diverged: %g vs %g", k, got.Cases[0].Metrics[k], v)
		}
	}
}

func TestDecodeRejectsForeignEngineAndCodec(t *testing.T) {
	rep, err := scenario.RunModel(codecSpec(t), scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(data), `"engine":"`+EngineVersion+`"`, `"engine":"0-ancient"`, 1)
	if _, err := DecodeReport([]byte(stale)); err == nil {
		t.Error("report from a foreign engine version decoded cleanly")
	}
	wrongCodec := strings.Replace(string(data), `{"codec":`, `{"codec":9`, 1)
	if _, err := DecodeReport([]byte(wrongCodec)); err == nil {
		t.Error("unknown codec version decoded cleanly")
	}
	// A v1 blob (pre-metrics) must decode as a miss, not half-read.
	v1 := strings.Replace(string(data), fmt.Sprintf(`{"codec":%d`, codecVersion), `{"codec":1`, 1)
	if _, err := DecodeReport([]byte(v1)); err == nil {
		t.Error("stale codec v1 blob decoded cleanly")
	}
	if _, err := DecodeReport([]byte(fmt.Sprintf(`{"codec":%d}`, codecVersion))); err == nil {
		t.Error("empty report decoded cleanly")
	}
	if _, err := DecodeReport([]byte("not json")); err == nil {
		t.Error("garbage decoded cleanly")
	}
}
