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
// A flag invocation is shorthand for a scenario spec named "ehsim":
// the workload, supply and runtime, storage C from -c with a 50 kΩ
// leakage path, the duration, and -ff. When -c lists more than one
// capacitance the spec gains a "c" sweep axis, so every case runs in
// parallel on the sweep engine and prints as one table, in flag order.
// The run then goes through exactly the path -scenario takes, so a flag
// run and -scenario on the equivalent spec print the same bytes.
//
// -ff enables the lab's analytic fast-forward: the rail hops idle decay
// and constant-supply plateaus (active execution included) in closed
// form. Discrete events (completions, snapshots, restores, brown-outs)
// stay exact; continuous values (energies, voltages) agree to
// closed-form precision rather than bit for bit.
//
// With -scenario the run is defined entirely by a JSON spec
// (internal/scenario): a single run when the spec has no sweep axes, a
// grid sweep otherwise. -workers, -ff and (single runs) -trace compose
// with it. "-scenario -" reads the spec from stdin, so specs pipe
// between tools (and into ehsimd client examples) without touching
// disk. Execution and report rendering go through scenario.RunModel,
// and the -trace CSV through result.WriteTrace — the same path the
// ehsimd service serves — so CLI output and service results are
// byte-identical by construction.
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

	"repro/internal/powerneutral"
	"repro/internal/programs"
	"repro/internal/registry"
	"repro/internal/result"
	"repro/internal/scenario"
	"repro/internal/source"
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
	ff := fs.Bool("ff", false, "fast-forward idle decay and constant-supply plateaus in closed form (discrete events exact)")
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
	var sp *scenario.Spec
	var err error
	if *scenarioPath != "" {
		sp, err = loadSpec(*scenarioPath, stdin)
	} else {
		sp, err = flagSpec(*workload, *supply, *runtimeName, *capFlag, *duration)
	}
	if err == nil {
		err = runSpec(sp, *tracePath, *ff, *workers, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ehsim: %v\n", err)
		return 1
	}
	return 0
}

// flagSpec builds the scenario spec a flag invocation describes: one
// lab run, or a sweep over storage C when -c lists several values.
// runSpec applies -ff to it, as to any spec.
func flagSpec(workload, supply, runtimeName, capFlag string, duration float64) (*scenario.Spec, error) {
	var caps []scenario.Value
	for _, part := range strings.Split(capFlag, ",") {
		c, err := parseCap(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		caps = append(caps, scenario.Value(c))
	}
	if alias, ok := supplyAliases[supply]; ok {
		supply = alias
	}
	sp := &scenario.Spec{
		Name:     "ehsim",
		Workload: workload,
		Storage:  scenario.StorageSpec{C: caps[0], LeakR: 50e3},
		Source:   scenario.SourceSpec{Name: supply},
		Runtime:  scenario.RuntimeSpec{Name: runtimeName},
		Duration: scenario.Value(duration),
	}
	if len(caps) > 1 {
		sp.Sweep = []scenario.Axis{{Param: "c", Values: caps}}
	}
	return sp, sp.Validate()
}

// loadSpec reads a declarative spec from path, or from stdin when path
// is "-".
func loadSpec(path string, stdin io.Reader) (*scenario.Spec, error) {
	if path != "-" {
		return scenario.Load(path)
	}
	data, err := io.ReadAll(stdin)
	if err != nil {
		return nil, fmt.Errorf("reading spec from stdin: %w", err)
	}
	return scenario.Parse(data)
}

// runSpec executes a spec through scenario.RunModel, the path the
// ehsimd service runs too, so what it prints is exactly what the
// service serves for the same spec.
func runSpec(sp *scenario.Spec, tracePath string, ff bool, workers int, stdout, stderr io.Writer) error {
	if ff {
		sp.FastForward = true
	}
	if sp.HasSweep() && tracePath != "" {
		fmt.Fprintln(stderr, "ehsim: -trace applies to single runs only; ignoring it for the sweep")
		tracePath = ""
	}

	rep, err := scenario.RunModel(sp, scenario.RunOptions{Workers: workers, Trace: tracePath != ""})
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
func writeTraceFile(path string, rep *scenario.ModelReport) error {
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
