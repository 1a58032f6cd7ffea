package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/lab"
	"repro/internal/result"
	"repro/internal/scenario"
)

const (
	scenarioDir    = "examples/scenarios"
	explorationDir = "examples/explorations"
	goldenDir      = "testdata/golden"
)

// labClasses are the lab-model curated specs, cheapest first, with the
// requests a nominal run serves of each. On a 2-core x86-64 host one
// request takes about 7, 33, 80, 215 and 580 ms (stepwise). With these
// counts the median (rank 50 of 100) falls inside dutycycle (ranks
// 39–68) and the tail (rank 89, ten beyond it) is the median of the 21
// framsram requests (ranks 79–99).
var labClasses = []class{
	{"fig7", 29},
	{"mementos", 10},
	{"dutycycle", 30},
	{"windgust", 10},
	{"framsram", 21},
}

// labSpecFiles maps each lab class to its curated spec.
var labSpecFiles = []string{
	"fig7-rectified-sine-hibernus",
	"lab-mementos-square",
	"eneutral-duty-cycle",
	"powerneutral-wind-gust",
	"transient-fram-vs-sram",
}

// labReq is one distinct lab request: the curated spec, compiled once
// in set-up, and the report it must produce.
type labReq struct {
	data   []byte
	sp     *scenario.Spec
	golden string
	cases  []labCounts // per case, from the warm-up pass
	counts labCounts   // their total
}

// labCounts are the exact work counts of one lab report.
type labCounts struct {
	steps, cycles, completions, saves, restores, brownouts int64
}

func (c *labCounts) add(o labCounts) {
	c.steps += o.steps
	c.cycles += o.cycles
	c.completions += o.completions
	c.saves += o.saves
	c.restores += o.restores
	c.brownouts += o.brownouts
}

func (c labCounts) discrete() labCounts {
	c.steps = 0 // every other count is a discrete event or an exact cycle tally
	return c
}

func labResultCounts(r lab.Result) labCounts {
	return labCounts{
		steps:       int64(r.Steps),
		cycles:      int64(r.Stats.CyclesRun),
		completions: int64(r.Completions),
		saves:       int64(r.Stats.SavesDone),
		restores:    int64(r.Stats.Restores),
		brownouts:   int64(r.Stats.BrownOuts),
	}
}

// checkLab runs one lab request through result.RunSpec and checks its
// output: the report byte-identical to the golden, and every case free
// of wrong results and guest faults. It returns the per-case counts.
func checkLab(sp *scenario.Spec, golden string) ([]labCounts, error) {
	rep, err := result.RunSpec(sp, result.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	return checkLabReport(sp, rep, golden)
}

func checkLabReport(sp *scenario.Spec, rep *result.Report, golden string) ([]labCounts, error) {
	if rep.Text != golden {
		return nil, fmt.Errorf("%s: report differs from %s/%s.txt", sp.Name, goldenDir, sp.Name)
	}
	var out []labCounts
	for _, c := range rep.Cases {
		if c.Result.WrongResults != 0 || c.Result.RuntimeErr != nil {
			return nil, fmt.Errorf("%s/%s: %d wrong results, runtime error %v", sp.Name, c.Name, c.Result.WrongResults, c.Result.RuntimeErr)
		}
		out = append(out, labResultCounts(c.Result))
	}
	return out, nil
}

func total(cs []labCounts) labCounts {
	var t labCounts
	for _, c := range cs {
		t.add(c)
	}
	return t
}

// labSetup loads and validates the curated specs with fast-forward set
// as asked, then makes one untimed warm-up pass over each, which fills
// the assembler memo and other lazy state.
func labSetup(ff bool) ([]labReq, error) {
	reqs := make([]labReq, len(labSpecFiles))
	for i, name := range labSpecFiles {
		data, err := os.ReadFile(filepath.Join(scenarioDir, name+".json"))
		if err != nil {
			return nil, err
		}
		sp, err := scenario.Parse(data)
		if err != nil {
			return nil, err
		}
		sp.FastForward = ff
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		golden, err := readGolden(name)
		if err != nil {
			return nil, err
		}
		reqs[i] = labReq{data: data, sp: sp, golden: golden}
	}
	for i := range reqs {
		cs, err := checkLab(reqs[i].sp, reqs[i].golden)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		reqs[i].cases, reqs[i].counts = cs, total(cs)
	}
	return reqs, nil
}

func runLab(cfg config, ff bool) (*run, error) {
	var reqs []labReq
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if reqs, err = labSetup(ff); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cfg.clock.sample()
	}
	stream := deck(labClasses, cfg.scale, cfg.seed)

	r := &run{attempted: len(stream), counts: map[string]int64{}}
	var work labCounts
	lat := make([]float64, 0, len(stream))
	runtime.GC()
	for _, ci := range stream {
		q := &reqs[ci]
		ts := time.Now()
		rep, err := result.RunSpec(q.sp, result.Options{Workers: 1})
		lat = append(lat, ms(time.Since(ts)))
		cfg.clock.sample()
		var cs []labCounts
		if err == nil {
			cs, err = checkLabReport(q.sp, rep, q.golden)
		}
		if err != nil {
			r.failed++
			r.failf("%v", err)
			continue
		}
		work.add(total(cs))
	}
	r.e2e = e2eMetrics(setups, lat, float64(work.steps), sum(lat)/1e3)
	r.counts = map[string]int64{
		"lab.steps":       work.steps,
		"mcu.cycles":      work.cycles,
		"lab.completions": work.completions,
		"mcu.saves_done":  work.saves,
		"mcu.restores":    work.restores,
		"mcu.brownouts":   work.brownouts,
	}
	if err := checkFastForwardContract(reqs, ff); err != nil {
		r.failf("%v", err)
	}
	if cfg.trace {
		if err := traceLab(cfg, r, reqs, stream, lat, ff); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkFastForwardContract runs each spec once in the other stepping
// mode and checks that every discrete event count — completions, saves,
// restores, brown-outs, guest cycles — matches the warm-up's, case by
// case.
func checkFastForwardContract(reqs []labReq, ff bool) error {
	for _, q := range reqs {
		mine := q.cases
		other := q.sp.Clone()
		other.FastForward = !ff
		theirs, err := checkLab(other, q.golden)
		if err != nil {
			return fmt.Errorf("fastforward=%v: %w", !ff, err)
		}
		for i := range mine {
			if mine[i].discrete() != theirs[i].discrete() {
				return fmt.Errorf("%s case %d: fast-forward changed discrete events: %+v vs %+v", q.sp.Name, i, mine[i], theirs[i])
			}
		}
	}
	return nil
}

// labSetups compiles every case of a spec into lab.Setups (one for a
// single run, one per grid case for a sweep).
func labSetups(sp *scenario.Spec) ([]lab.Setup, error) {
	if !sp.HasSweep() {
		st, err := sp.Setup()
		return []lab.Setup{st}, err
	}
	var out []lab.Setup
	for _, c := range sp.Grid().Cases() {
		st, err := sp.SetupAt(c)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// traceLab is the traced run: the same stream again with spans around
// each public call, direct lab.Run calls to split the lab engine from
// RunSpec's compile and render, and standalone layer costs.
func traceLab(cfg config, r *run, reqs []labReq, stream []int, untraced []float64, ff bool) error {
	tr := newTracer()
	for i, ci := range stream {
		q := &reqs[ci]
		root := tr.begin("request", -1, i)
		var sts []lab.Setup
		var err error
		tr.do("scenario.compile", root, i, func() {
			var sp *scenario.Spec
			if sp, err = scenario.Parse(q.data); err == nil {
				sp.FastForward = ff
				sts, err = labSetups(sp)
			}
		})
		if err != nil {
			return err
		}
		tr.do("lab.Run", root, i, func() {
			for _, st := range sts {
				if _, e := lab.Run(st); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return err
		}
		tr.do("result.RunSpec", root, i, func() {
			_, err = result.RunSpec(q.sp, result.Options{Workers: 1})
		})
		if err != nil {
			return err
		}
		tr.end(root)
	}
	if err := tr.dump(filepath.Join(cfg.out, fmt.Sprintf("spans-lab-%v-seed%d.json", ff, cfg.seed))); err != nil {
		return err
	}

	byClass := func(req int) string { return labClasses[stream[req]].name }
	runMS := tr.durationsBy("lab.Run", byClass)
	specMS := tr.durationsBy("result.RunSpec", byClass)
	L := map[string]metric{}
	L["scenario.compile_ms"] = metric{sum(tr.durations("scenario.compile")) / float64(len(stream)), "ms"}

	costs, err := measureLabLayers(reqs)
	if err != nil {
		return err
	}
	table := []string{latencyLine(untraced), "per class (medians over the traced stream; lab.Run called directly on Spec.Setup)"}
	table = append(table, fmt.Sprintf("  %-10s %5s %11s %11s %11s %10s %10s %10s %12s",
		"class", "reqs", "RunSpec ms", "lab.Run ms", "render ms", "isa ns/cy", "rail ns/st", "src ns/smp", "unattrib ms"))
	var wCycles, wSteps, isaNS, railNS, srcNS, unattrib float64
	for ci, c := range labClasses {
		run, spec := median(runMS[c.name]), median(specMS[c.name])
		k := costs[ci]
		cnt := reqs[ci].counts
		predicted := (float64(cnt.cycles)*k.isaNS + float64(cnt.steps)*(k.railNS+k.srcNS)) / 1e6
		L["lab.run_ms."+c.name] = metric{run, "ms"}
		L["result.render_ms."+c.name] = metric{spec - run, "ms"}
		L["lab.unattributed_ms."+c.name] = metric{run - predicted, "ms"}
		n := float64(len(runMS[c.name]))
		wCycles += n * float64(cnt.cycles)
		wSteps += n * float64(cnt.steps)
		isaNS += n * float64(cnt.cycles) * k.isaNS
		railNS += n * float64(cnt.steps) * k.railNS
		srcNS += n * float64(cnt.steps) * k.srcNS
		unattrib += n * (run - predicted)
		table = append(table, fmt.Sprintf("  %-10s %5d %11.3f %11.3f %11.3f %10.3f %10.3f %10.3f %12.3f",
			c.name, len(runMS[c.name]), spec, run, spec-run, k.isaNS, k.railNS, k.srcNS, run-predicted))
	}
	L["isa.ns_per_cycle"] = metric{isaNS / wCycles, "ns"}
	L["circuit.ns_per_step"] = metric{railNS / wSteps, "ns"}
	L["source.ns_per_sample"] = metric{srcNS / wSteps, "ns"}
	L["lab.unattributed_ms"] = metric{unattrib / float64(len(stream)), "ms"}
	table = append(table, fmt.Sprintf("  lab.unattributed_ms = lab.Run − (cycles×isa + steps×(rail+source)): %.3f ms per request of %.3f ms lab.Run",
		unattrib/float64(len(stream)), sum(tr.durations("lab.Run"))/float64(len(stream))))

	table = append(table, "fast-forward ratio per class (lab.Run ff ÷ stepwise, median of 3 direct runs each)")
	for ci, c := range labClasses {
		ffMS, stepMS, err := ffRatio(reqs[ci].data)
		if err != nil {
			return err
		}
		L["lab.ff_ms."+c.name] = metric{ffMS, "ms"}
		L["lab.stepwise_ms."+c.name] = metric{stepMS, "ms"}
		L["lab.ff_ratio."+c.name] = metric{ffMS / stepMS, "1"}
		table = append(table, fmt.Sprintf("  %-10s %.3f = %.3f / %.3f ms", c.name, ffMS/stepMS, ffMS, stepMS))
	}

	finishTrace(r, tr, L, table, len(stream), "RunSpec", tr.durations("result.RunSpec"), untraced)
	return nil
}

// ffRatio times lab.Run on a spec with fast-forward on and off, median
// of three direct runs each, summed over the spec's cases.
func ffRatio(data []byte) (ffMS, stepMS float64, err error) {
	timeMode := func(ff bool) (float64, error) {
		var ts []float64
		for i := 0; i < 3; i++ {
			sp, err := scenario.Parse(data)
			if err != nil {
				return 0, err
			}
			sp.FastForward = ff
			sts, err := labSetups(sp)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for _, st := range sts {
				if _, err := lab.Run(st); err != nil {
					return 0, err
				}
			}
			ts = append(ts, ms(time.Since(t0)))
		}
		return median(ts), nil
	}
	if ffMS, err = timeMode(true); err != nil {
		return
	}
	stepMS, err = timeMode(false)
	return
}
