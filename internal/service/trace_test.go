package service

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/result"
	"repro/internal/scenario"
)

// TestAnalyticTraceCSVPinned pins the sha256 of the trace CSV the
// daemon serves for the analytic curated specs, recorded at the
// daemon's own trace interval (traceInterval stretches it for long
// runs, so these differ from the CLI-interval golden traces).
func TestAnalyticTraceCSVPinned(t *testing.T) {
	for _, tc := range []struct{ name, sum string }{
		{"taskburst-wispcam", "0ba632cbabd4438f755f240af91b0b669b46266cf9fbff9f81c0d9fa4a01bf4c"},
		{"mpsoc-fig5-solar", "7479a301c39729ded616280a44feb4f40714b757a967508120dcc3bb8bad506d"},
		{"eneutral-kansal-pv", "abe0da048001796af7a1e1885212543ffacc7e812962b62c814aeb31f016fb97"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := scenario.Load(filepath.Join("../../examples/scenarios", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := scenario.RunModel(sp, scenario.RunOptions{
				Workers:       1,
				Trace:         true,
				TraceInterval: traceInterval(float64(sp.Duration)),
			})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := result.WriteTrace(h, rep.Trace, rep.SpecHash); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.sum {
				t.Errorf("trace CSV sha256 = %s, pinned %s", got, tc.sum)
			}
		})
	}
}
