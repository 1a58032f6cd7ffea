// Command ehsim runs transiently-powered scenarios from the command line:
// pick a workload, a supply, a runtime, and a storage size — or hand it a
// declarative scenario spec — and get completions, snapshot counts,
// energy figures and (optionally) a CSV trace of V_CC.
//
// All names resolve through the layer registries (internal/programs,
// internal/source, internal/transient, internal/powerneutral); -list
// enumerates everything they export, with per-entry tunables and
// defaults.
//
// The -c flag accepts a comma-separated list of capacitances; with more
// than one, ehsim becomes a storage-axis sweep: every case runs in
// parallel on the sweep engine and the results are printed as one table,
// in flag order. -ff enables the lab's analytic fast-forward through idle
// decay, which speeds up sparse supplies (long outages) several-fold at
// tolerance-level accuracy cost.
//
// With -scenario the run is defined entirely by a JSON spec
// (internal/scenario): a single run when the spec has no sweep axes, a
// grid sweep otherwise. -workers, -ff and (single runs) -trace compose
// with it. "-scenario -" reads the spec from stdin, so specs pipe
// between tools (and into ehsimd client examples) without touching
// disk. Execution and report rendering go through internal/result — the
// same path the ehsimd service serves — so CLI output and service
// results are byte-identical by construction.
//
// Usage:
//
//	ehsim -workload fft64 -supply square -runtime hibernus -c 10u -dur 3
//	ehsim -scenario examples/scenarios/fig7-rectified-sine-hibernus.json
//
// Examples:
//
//	ehsim -list
//	ehsim -workload sieve3000 -supply square -runtime none
//	ehsim -workload fft64 -supply wind -runtime hibernus-pn -c 330u
//	ehsim -workload crc256 -supply sine20 -runtime quickrecall -trace vcc.csv
//	ehsim -workload sieve3000 -supply square -c 4.7u,10u,47u,470u -ff
//	ehsim -scenario examples/scenarios/transient-fram-vs-sram.json -workers 4
//	jq '.duration = 1' spec.json | ehsim -scenario -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/powerneutral"
	"repro/internal/programs"
	"repro/internal/registry"
	"repro/internal/result"
	"repro/internal/scenario"
	"repro/internal/source"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/transient"
	"repro/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// supplyAliases maps legacy -supply flag names onto registry names so
// existing invocations keep working.
var supplyAliases = map[string]string{"sine20": "rectified-sine"}

// run is the testable entry point: it parses args, executes, and returns
// the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ehsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "fft64", "workload name (see -list)")
	supply := fs.String("supply", "square", "supply name (see -list)")
	runtimeName := fs.String("runtime", "hibernus", "runtime name (see -list)")
	capFlag := fs.String("c", "10u", "rail capacitance(s), e.g. 10u or 4.7u,10u,47u")
	duration := fs.Float64("dur", 3.0, "simulated seconds")
	tracePath := fs.String("trace", "", "write a V_CC/freq/mode CSV trace to this file")
	ff := fs.Bool("ff", false, "fast-forward idle decay analytically (faster, tolerance-level accuracy)")
	workers := fs.Int("workers", 0, "sweep parallelism (0 = one per core)")
	scenarioPath := fs.String("scenario", "", "run a declarative scenario spec (JSON) instead of flags; - reads stdin")
	list := fs.Bool("list", false, "list every registered workload, source, runtime and governor")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		printList(stdout)
		return 0
	}
	if *scenarioPath != "" {
		if err := runScenario(*scenarioPath, *tracePath, *ff, *workers, stdin, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "ehsim: %v\n", err)
			return 1
		}
		return 0
	}
	if err := runFlags(*workload, *supply, *runtimeName, *capFlag, *duration,
		*tracePath, *ff, *workers, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "ehsim: %v\n", err)
		return 1
	}
	return 0
}

// runFlags is the classic flag-driven path, now resolving every name
// through the registries.
func runFlags(workload, supply, runtimeName, capFlag string, duration float64,
	tracePath string, ff bool, workers int, stdout, stderr io.Writer) error {
	var caps []float64
	for _, part := range strings.Split(capFlag, ",") {
		c, err := parseCap(strings.TrimSpace(part))
		if err != nil {
			return err
		}
		caps = append(caps, c)
	}

	supplyLabel := supply // headers show the name as the user gave it
	if alias, ok := supplyAliases[supply]; ok {
		supply = alias
	}
	entry, err := transient.LookupRuntime(runtimeName)
	if err != nil {
		return err
	}
	layout := programs.DefaultLayout()
	params := mcu.DefaultParams()
	if entry.UnifiedNV {
		layout = programs.UnifiedNVLayout()
		params = mcu.UnifiedNVParams()
	}
	w, err := programs.Build(workload, layout)
	if err != nil {
		return err
	}
	if _, err := source.Build(supply, nil); err != nil {
		return err
	}

	setup := func(c float64) lab.Setup {
		built, _ := source.Build(supply, nil) // validated above; fresh per case
		mk, _, err := transient.RuntimeFactory(runtimeName, c, nil)
		if err != nil {
			panic(err) // unreachable: the name resolved above
		}
		return lab.Setup{
			Workload:    w,
			Params:      params,
			MakeRuntime: mk,
			VSource:     built.V,
			PSource:     built.P,
			C:           c,
			LeakR:       50e3,
			Duration:    duration,
			FastForward: ff,
		}
	}

	if len(caps) > 1 {
		if tracePath != "" {
			fmt.Fprintln(stderr, "ehsim: -trace applies to single runs only; ignoring it for the sweep")
		}
		return sweepCaps(caps, setup, workload, supplyLabel, runtimeName, workers, stdout)
	}

	c := caps[0]
	s := setup(c)
	title := fmt.Sprintf("scenario: %s on %s, runtime=%s, C=%s, %gs",
		w.Name, supplyLabel, runtimeName, units.Format(c, "F"), duration)
	return runSingle(s, title, tracePath, stdout)
}

// runSingle executes one flag-built setup, printing the title, summary,
// and (if requested) a CSV trace.
func runSingle(s lab.Setup, title, tracePath string, stdout io.Writer) error {
	var rec *trace.Recorder
	if tracePath != "" {
		rec = trace.NewRecorder()
		s.Recorder = rec
		s.RecordInterval = result.TraceInterval
	}

	res, err := lab.Run(s)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, title)
	scenario.WriteSummary(stdout, res, s.Duration)

	if rec != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		// Flag-built runs have no spec, so no spec-hash header; scenario
		// runs get theirs through result.RunSpec.
		if err := result.WriteTrace(f, rec, ""); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  trace written to %s\n", tracePath)
	}
	return nil
}

// runScenario executes a declarative spec — loaded from path, or from
// stdin when path is "-" — through the shared internal/result path, so
// what it prints is exactly what the ehsimd service serves for the same
// spec.
func runScenario(path, tracePath string, ff bool, workers int,
	stdin io.Reader, stdout, stderr io.Writer) error {
	var sp *scenario.Spec
	var err error
	if path == "-" {
		data, rerr := io.ReadAll(stdin)
		if rerr != nil {
			return fmt.Errorf("reading spec from stdin: %w", rerr)
		}
		sp, err = scenario.Parse(data)
	} else {
		sp, err = scenario.Load(path)
	}
	if err != nil {
		return err
	}
	if ff {
		sp.FastForward = true
	}
	if sp.HasSweep() && tracePath != "" {
		fmt.Fprintln(stderr, "ehsim: -trace applies to single runs only; ignoring it for the sweep")
		tracePath = ""
	}

	rep, err := result.RunSpec(sp, result.Options{Workers: workers, Trace: tracePath != ""})
	if err != nil {
		return err
	}
	if _, err := io.WriteString(stdout, rep.Text); err != nil {
		return err
	}
	if tracePath != "" {
		if err := writeTraceFile(tracePath, rep); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  trace written to %s\n", tracePath)
	}
	return nil
}

// writeTraceFile renders a report's trace straight into path — the
// same WriteTrace render the daemon streams from /trace.
func writeTraceFile(path string, rep *result.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := result.WriteTrace(f, rep.Trace, rep.SpecHash); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweepCaps fans one run per capacitance out over the sweep engine and
// prints a storage-axis comparison table in flag order.
func sweepCaps(caps []float64, setup func(c float64) lab.Setup,
	workload, supply, runtimeName string, workers int, stdout io.Writer) error {
	results, err := sweep.Labs(&sweep.Runner{Workers: workers}, len(caps),
		func(c sweep.Case) lab.Setup { return setup(caps[c.Index]) })
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "storage sweep: %s on %s, runtime=%s, %d cases\n",
		workload, supply, runtimeName, len(caps))
	names := make([]string, len(caps))
	for i, c := range caps {
		names[i] = units.Format(c, "F")
	}
	scenario.WriteSweepTable(stdout, "C", 10, names, results)
	return nil
}

// printList enumerates every registry the scenario layer resolves names
// through, with each entry's tunables and defaults.
func printList(w io.Writer) {
	docs := func(ps []registry.ParamDoc) string {
		if len(ps) == 0 {
			return ""
		}
		parts := make([]string, len(ps))
		for i, p := range ps {
			parts[i] = fmt.Sprintf("%s=%g", p.Key, p.Default)
		}
		return "  [" + strings.Join(parts, " ") + "]"
	}

	fmt.Fprintln(w, "models:")
	for _, n := range scenario.ModelNames() {
		m, _ := scenario.LookupModel(n)
		fmt.Fprintf(w, "  %-16s %s%s\n", n, m.Desc(), docs(m.Params()))
		if ms := m.Metrics(); len(ms) > 0 {
			keys := make([]string, len(ms))
			for i, d := range ms {
				keys[i] = d.Key
				if d.Unit != "" {
					keys[i] += "(" + d.Unit + ")"
				}
			}
			fmt.Fprintf(w, "  %-16s metrics: %s\n", "", strings.Join(keys, " "))
		}
	}
	fmt.Fprintln(w, "workloads:")
	for _, n := range programs.Names() {
		f, _ := programs.Lookup(n)
		fmt.Fprintf(w, "  %-16s %s\n", n, f.Desc)
	}
	fmt.Fprintln(w, "sources:")
	for _, n := range source.Names() {
		e, _ := source.Lookup(n)
		kind := "voltage"
		if e.Power {
			kind = "power"
		}
		fmt.Fprintf(w, "  %-16s %s (%s)%s\n", n, e.Desc, kind, docs(e.Params))
	}
	fmt.Fprintln(w, "runtimes:")
	for _, n := range transient.RuntimeNames() {
		e, _ := transient.LookupRuntime(n)
		note := ""
		if e.UnifiedNV {
			note = " (unified-NV device)"
		}
		fmt.Fprintf(w, "  %-16s %s%s%s\n", n, e.Desc, note, docs(e.Params))
	}
	fmt.Fprintln(w, "governors:")
	for _, n := range powerneutral.GovernorNames() {
		e, _ := powerneutral.LookupGovernor(n)
		fmt.Fprintf(w, "  %-16s %s%s\n", n, e.Desc, docs(e.Params))
	}
}

// parseCap parses values like "10u", "470u", "6m", "0.01".
func parseCap(s string) (float64, error) {
	v, err := units.ParseSI(s)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("invalid capacitance %q", s)
	}
	return v, nil
}
