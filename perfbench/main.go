// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator only through public entry points — result.RunSpec,
// explore.Run with its own Evaluate, and an in-process ehsimd handler
// over loopback HTTP — and times each layer from outside by timing
// calls into that layer's public functions.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload lab-stepwise --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md for
// the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// nominalSeconds is the run length the request counts are sized for on
// a 2-core x86-64 host; --seconds scales them by whole multiples.
const nominalSeconds = 15

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed  uint64
	scale int    // multiple of the nominal request counts
	out   string // directory for run artifacts (span dumps, work counts)
	trace bool
	clock *hostClock // sampled between requests and set-up repetitions
}

// run is what a workload hands back.
type run struct {
	attempted, failed int
	e2e               map[string]metric
	layers            map[string]metric
	counts            map[string]int64 // exact work counts, repeatable per seed
	table             []string         // traced-run report lines
	casFS             string           // filesystem type under the CAS, "" for none
	simSeconds        float64          // simulated seconds the service computed
	errs              []string         // failed output checks
}

func (r *run) failf(format string, args ...any) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*run, error){
	"lab-stepwise":     func(c config) (*run, error) { return runLab(c, false) },
	"lab-fastforward":  func(c config) (*run, error) { return runLab(c, true) },
	"explore-analytic": runExplore,
	"service-mix":      runService,
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: lab-stepwise, lab-fastforward, explore-analytic, service-mix")
	seed := fs.Uint64("seed", 1, "seed the request stream is generated from")
	seconds := fs.Int("seconds", nominalSeconds, "run length; scales the fixed request counts by round(seconds/15), at least 1")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for run artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := checkInputs(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	procs := runtime.NumCPU()
	cfg := config{
		seed:  *seed,
		scale: max(1, int(math.Round(float64(*seconds)/nominalSeconds))),
		out:   *out,
		trace: *traced == 1,
		clock: &hostClock{},
	}
	cfg.clock.sample()
	r, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := checkCounts(cfg, *name, r); err != nil {
		r.failf("%v", err)
	}
	casFS := r.casFS
	if casFS == "" {
		casFS = "none"
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s cas_fs=%s elapsed_s=%.1f\n",
		*name, *seed, *seconds, *traced, procs, runtime.GOMAXPROCS(0), runtime.Version(), casFS, time.Since(start).Seconds())
	fmt.Fprintf(stdout, "# %v\n", cfg.clock)
	for _, k := range sortedKeys(r.e2e) {
		fmt.Fprintf(stdout, "# wall %s=%g %s\n", k, r.e2e[k].Value, r.e2e[k].Unit)
	}
	for _, k := range sortedKeys(r.counts) {
		fmt.Fprintf(stdout, "# count %s=%d\n", k, r.counts[k])
	}
	for _, line := range r.table {
		fmt.Fprintln(stdout, line)
	}
	for _, e := range r.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}
	res := output{
		Correct:   len(r.errs) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   atReferenceSpeed(r.e2e, cfg.clock.factor()),
	}
	if cfg.trace {
		res.Metrics = completeLayers(r.layers)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkInputs fails fast when the checkout lacks the curated inputs the
// workloads are generated from.
func checkInputs() error {
	for _, dir := range []string{scenarioDir, explorationDir, goldenDir} {
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			return fmt.Errorf("run from the repository root: %s not found", dir)
		}
	}
	return nil
}

// checkCounts asserts the steadiness self-check: a run's exact work
// counts equal those of every earlier run of the same workload, seed and
// scale in this checkout. The first run records them.
func checkCounts(cfg config, name string, r *run) error {
	path := filepath.Join(cfg.out, "counts", fmt.Sprintf("%s-seed%d-x%d.json", name, cfg.seed, cfg.scale))
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		b, err := json.Marshal(r.counts)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return err
	}
	var prev map[string]int64
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("work counts %s: %w", path, err)
	}
	for _, k := range sortedKeys(r.counts) {
		if prev[k] != r.counts[k] {
			return fmt.Errorf("work count %s = %d, an earlier run with the same seed counted %d", k, r.counts[k], prev[k])
		}
	}
	if len(prev) != len(r.counts) {
		return fmt.Errorf("work counts name %d quantities, an earlier run with the same seed named %d", len(r.counts), len(prev))
	}
	return nil
}

// e2eMetrics assembles the end-to-end metrics every workload reports:
// setup times (seconds, one per repetition), per-request latencies
// (milliseconds), and units of work done in wall seconds of timed phase.
func e2eMetrics(setups, latMS []float64, work, wall float64) map[string]metric {
	tailV, _, _ := tail(latMS)
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_per_s": {work / wall, "1/s"},
		"latency_ms_p50":   {median(latMS), "ms"},
		"latency_ms_tail":  {tailV, "ms"},
		"max_rss_mb":       {maxRSSMB(), "MB"},
	}
}

// atReferenceSpeed rescales wall-time metrics by the host clock's
// factor (see hostclock.go); other metrics pass through.
func atReferenceSpeed(wall map[string]metric, f float64) map[string]metric {
	out := map[string]metric{}
	for k, m := range wall {
		switch m.Unit {
		case "s", "ms":
			m.Value *= f
		case "1/s":
			m.Value /= f
		}
		out[k] = m
	}
	return out
}

// latencyLine is the traced-run report line describing the timed
// phase's percentiles and sample count.
func latencyLine(latMS []float64) string {
	v, pct, n := tail(latMS)
	return fmt.Sprintf("latency: p50 %.3f ms, tail p%.2f %.3f ms (%d samples beyond it, n=%d)",
		median(latMS), pct, v, tailBeyond, n)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// fsType names the filesystem holding path, from statfs's magic number.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683e:
		return "btrfs"
	case 0x58465342:
		return "xfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
