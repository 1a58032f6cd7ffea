// Command ehsim-explore runs a design-space exploration spec
// (internal/explore): a base scenario plus a search strategy — dense
// grid scan, bisection on an objective difference (e.g. the eq. 5
// FRAM-vs-SRAM break-even), or successive grid refinement around the
// incumbent — with streaming top-k and Pareto-frontier aggregators
// reducing the evaluation stream in bounded memory.
//
// Objectives are the structured metrics every scenario model reports
// (`ehsim -list` prints each model's metric keys). Execution and
// rendering go through internal/explore — the same path the ehsimd
// service runs for POST /v1/explorations — so the printed report is
// byte-identical to the daemon's /result body for the same spec.
//
// Usage:
//
//	ehsim-explore -spec examples/explorations/eq5-crossover.json
//	ehsim-explore -spec examples/explorations/fig5-pareto.json -workers 8
//	jq '.strategy.tolerance = "0.1m"' spec.json | ehsim-explore -spec -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/explore"
	"repro/internal/result"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and
// returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ehsim-explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "exploration spec (JSON); - reads stdin (required)")
	workers := fs.Int("workers", 0, "probe evaluation parallelism (0 = one per core)")
	progress := fs.Bool("progress", false, "report probe completions on stderr")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *specPath == "" {
		fmt.Fprintln(stderr, "ehsim-explore: -spec is required (see -h)")
		return 2
	}
	if err := runExploration(*specPath, *workers, *progress, stdin, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "ehsim-explore: %v\n", err)
		return 1
	}
	return 0
}

func runExploration(path string, workers int, progress bool,
	stdin io.Reader, stdout, stderr io.Writer) error {
	var es *explore.Spec
	var err error
	if path == "-" {
		data, rerr := io.ReadAll(stdin)
		if rerr != nil {
			return fmt.Errorf("reading spec from stdin: %w", rerr)
		}
		es, err = explore.Parse(data)
	} else {
		es, err = explore.Load(path)
	}
	if err != nil {
		return err
	}

	opts := scenario.RunOptions{Workers: workers}
	if progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "ehsim-explore: %d/%d probes\n", done, total)
		}
	}
	rep, err := result.RunExploration(es, opts)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, rep.Text)
	return err
}
