// Package result is what the ehsim CLI and the ehsimd service share
// beyond running a spec (scenario.RunModel, the one entry point): the
// engine version their caches key on, the report codec the daemon's
// disk and peer tiers persist (EncodeReport), and the trace CSV that
// stamps every trace with the spec's content address (WriteTrace). The
// byte-identity contract (`GET /v1/jobs/{id}/result` returns exactly
// what `ehsim -scenario` prints for the same spec) holds because both
// serve scenario.ModelReport.Text verbatim, and a decoded report
// carries the same text.
package result

import (
	"fmt"
	"io"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// EngineVersion names the simulation-and-rendering contract a cached
// report was produced under. The service mixes it into cache keys, so
// bump it whenever lab semantics, registry defaults, model behaviour,
// or report text change in a way that should invalidate previously
// computed results.
const EngineVersion = "2"

// TraceInterval is the sampling interval (simulated seconds) used for
// captured traces, matching the CLI's -trace behaviour.
const TraceInterval = scenario.DefaultTraceInterval

// Options and Report name scenario's run types for the frozen
// benchmark harness (perfbench); the repository itself uses the
// scenario names.
type (
	Options = scenario.RunOptions
	Report  = scenario.ModelReport
)

// RunSpec is scenario.RunModel under the name the benchmark harness
// calls.
func RunSpec(sp *scenario.Spec, opts Options) (*Report, error) { return scenario.RunModel(sp, opts) }

// WriteTrace serialises a recorded trace as CSV, prefixed (when specHash
// is non-empty) with a header comment carrying the spec's content
// address — so a trace file on disk is traceable back to the exact spec
// that produced it. The CSV is a pure function of the recorder, so every
// front-end that renders the same trace (the CLI's -trace file, the
// daemon's /trace, whichever tier served the report) writes the same
// bytes.
func WriteTrace(w io.Writer, rec *trace.Recorder, specHash string) error {
	if specHash != "" {
		if _, err := fmt.Fprintf(w, "# spec-hash: %s\n", specHash); err != nil {
			return err
		}
	}
	return rec.WriteCSV(w)
}
