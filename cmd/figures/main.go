// Command figures regenerates every figure and equation reproduction from
// the paper: it runs each registered experiment, prints the textual report,
// and (with -out) writes the recorded time series as CSV files suitable
// for external plotting.
//
// Experiments are independent, so they are fanned out over the sweep
// engine's worker pool (one worker per core by default; -workers to
// override) and reported in registration order — the output is
// byte-identical to a serial run.
//
// Usage:
//
//	figures [-out DIR] [-only ID] [-workers N]
//
// With no flags it runs everything and prints to stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, runs the selected
// experiments, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outDir := fs.String("out", "", "directory to write CSV traces and reports into")
	only := fs.String("only", "", "run a single experiment by ID (e.g. fig7)")
	workers := fs.Int("workers", 0, "experiment-level parallelism (0 = one per core)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	exps := experiments.All()
	if *only != "" {
		e, ok := experiments.ByID(*only)
		if !ok {
			fmt.Fprintf(stderr, "figures: unknown experiment %q; available:\n", *only)
			for _, e := range exps {
				fmt.Fprintf(stderr, "  %-8s %s\n", e.ID, e.Title)
			}
			return 2
		}
		exps = []experiments.Experiment{e}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "figures: %v\n", err)
			return 1
		}
	}

	// Fan the experiments out; a failure in one must not abort the rest,
	// so errors are carried per case instead of through the sweep error.
	type ran struct {
		out *experiments.Output
		err error
	}
	// Live progress goes to stderr so stdout stays byte-identical to a
	// serial run.
	runner := &sweep.Runner{Workers: *workers}
	if len(exps) > 1 {
		runner.OnProgress = func(done, total int) {
			fmt.Fprintf(stderr, "figures: %d/%d experiments done\n", done, total)
		}
	}
	runs, _ := sweep.Map(runner, len(exps),
		func(c sweep.Case) (ran, error) {
			out, err := exps[c.Index].Run()
			return ran{out: out, err: err}, nil
		})

	failed := 0
	for i, e := range exps {
		fmt.Fprintf(stdout, "running %s: %s\n", e.ID, e.Title)
		out, err := runs[i].out, runs[i].err
		if err != nil {
			fmt.Fprintf(stderr, "figures: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Fprintln(stdout, out.Render())
		if *outDir == "" {
			continue
		}
		report := filepath.Join(*outDir, e.ID+".txt")
		if err := os.WriteFile(report, []byte(out.Render()), 0o644); err != nil {
			fmt.Fprintf(stderr, "figures: write %s: %v\n", report, err)
			failed++
		}
		if out.Recorder != nil {
			csvPath := filepath.Join(*outDir, e.ID+".csv")
			f, err := os.Create(csvPath)
			if err != nil {
				fmt.Fprintf(stderr, "figures: %v\n", err)
				failed++
				continue
			}
			if err := out.Recorder.WriteCSV(f); err != nil {
				fmt.Fprintf(stderr, "figures: write %s: %v\n", csvPath, err)
				failed++
			}
			f.Close()
			fmt.Fprintf(stdout, "wrote %s\n", csvPath)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
