package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/explore"
	"repro/internal/result"
	"repro/internal/scenario"
)

// exploreClasses are the analytic requests, cheapest first, with the
// requests a nominal run serves of each. On a 2-core x86-64 host one
// request takes about 1, 4, 11, 23, 32 and 55 ms. The median (rank 925
// of 1851) falls inside taskburst (ranks 600–1099); the tail (rank
// 1840, ten beyond it) is the median of the 21 sweep requests.
var exploreClasses = []class{
	{"mpsoc", 600},
	{"taskburst", 500},
	{"eneutral", 500},
	{"fig5-pareto", 150},
	{"eq4-topk", 80},
	{"sweep", 21},
}

// sweepSpec is the benchmark's own analytic spec: the eneutral-kansal-pv
// node swept over its initial duty cycle. A model.<key> axis on an
// analytic model runs through the table-sweep path, while each case on
// its own runs through the model's Engine; the cross-path check pins the
// two to the same metrics.
const sweepSpec = `{
  "name": "perfbench-kansal-duty0-sweep",
  "model": "eneutral",
  "source": { "name": "pv" },
  "params": { "batteryj": 120, "pactive": "5m", "psleep": "50u", "duty0": 0.3, "window": 86400 },
  "duration": 172800,
  "dt": 1,
  "sweep": [ { "param": "model.duty0", "values": [0.1, 0.2, 0.3, 0.4, 0.5] } ]
}`

// exReq is one distinct analytic request: a scenario spec run through
// result.RunSpec, or an exploration run through explore.Run.
type exReq struct {
	data []byte
	sp   *scenario.Spec
	es   *explore.Spec
	want string
}

// exploreSetup loads and validates the requests and makes one untimed
// warm-up pass over each. The benchmark's own sweep has no golden: its
// warm-up report becomes the expected text, and the cross-path check
// vouches for its numbers.
func exploreSetup() ([]exReq, error) {
	var reqs []exReq
	for _, name := range []string{"mpsoc-fig5-solar", "taskburst-wispcam", "eneutral-kansal-pv"} {
		data, err := os.ReadFile(filepath.Join(scenarioDir, name+".json"))
		if err != nil {
			return nil, err
		}
		q := exReq{data: data}
		if q.sp, err = scenario.Parse(data); err != nil {
			return nil, err
		}
		if q.want, err = readGolden(name); err != nil {
			return nil, err
		}
		reqs = append(reqs, q)
	}
	for _, name := range []string{"fig5-pareto", "eq4-capacitor-topk"} {
		data, err := os.ReadFile(filepath.Join(explorationDir, name+".json"))
		if err != nil {
			return nil, err
		}
		q := exReq{data: data}
		if q.es, err = explore.Parse(data); err != nil {
			return nil, err
		}
		if q.want, err = readGolden("exploration-" + name); err != nil {
			return nil, err
		}
		reqs = append(reqs, q)
	}
	sweep := exReq{data: []byte(sweepSpec)}
	var err error
	if sweep.sp, err = scenario.Parse(sweep.data); err != nil {
		return nil, err
	}
	rep, err := result.RunSpec(sweep.sp, result.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	sweep.want = rep.Text
	reqs = append(reqs, sweep)
	for i := range reqs {
		if _, err := reqs[i].do(nil, i); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return reqs, nil
}

func readGolden(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(goldenDir, name+".txt"))
	return string(b), err
}

// exWork is what one analytic request did.
type exWork struct {
	evaluations, memoized int
}

// do serves the request once and checks its report text; with a tracer
// it records spans around explore.Run, the benchmark's Evaluate, and
// result.RunSpec.
func (q *exReq) do(tr *tracer, req int) (exWork, error) {
	root := tr.begin("request", -1, req)
	defer tr.end(root)
	if q.es == nil {
		var rep *result.Report
		var err error
		tr.do("result.RunSpec", root, req, func() {
			rep, err = result.RunSpec(q.sp, result.Options{Workers: 1})
		})
		if err != nil {
			return exWork{}, err
		}
		if rep.Text != q.want {
			return exWork{}, fmt.Errorf("%s: report differs from its expected text", q.sp.Name)
		}
		return exWork{evaluations: len(rep.Cases)}, nil
	}
	parent := -1
	eval := func(sp *scenario.Spec) (explore.Outcome, error) {
		id := tr.begin("explore.Evaluate", parent, req)
		defer tr.end(id)
		var rep *result.Report
		var err error
		tr.do("result.RunSpec", id, req, func() {
			rep, err = result.RunSpec(sp, result.Options{Workers: 1})
		})
		if err != nil {
			return explore.Outcome{}, err
		}
		if len(rep.Cases) != 1 {
			return explore.Outcome{}, fmt.Errorf("probe %s expanded to %d cases", sp.Name, len(rep.Cases))
		}
		return explore.Outcome{Metrics: rep.Cases[0].Metrics, SimSeconds: rep.SimSeconds}, nil
	}
	parent = tr.begin("explore.Run", root, req)
	rep, err := explore.Run(q.es, explore.Options{Evaluate: eval, Workers: 1})
	tr.end(parent)
	if err != nil {
		return exWork{}, err
	}
	if rep.Text != q.want {
		return exWork{}, fmt.Errorf("exploration %s: report differs from %s/exploration-%s.txt", q.es.Name, goldenDir, q.es.Name)
	}
	return exWork{evaluations: rep.Evaluations, memoized: rep.Memoized}, nil
}

func runExplore(cfg config) (*run, error) {
	var reqs []exReq
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if reqs, err = exploreSetup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cfg.clock.sample()
	}
	stream := deck(exploreClasses, cfg.scale, cfg.seed)

	r := &run{attempted: len(stream)}
	var work exWork
	lat := make([]float64, 0, len(stream))
	runtime.GC()
	for i, ci := range stream {
		ts := time.Now()
		w, err := reqs[ci].do(nil, i)
		lat = append(lat, ms(time.Since(ts)))
		cfg.clock.sample()
		if err != nil {
			r.failed++
			r.failf("%v", err)
			continue
		}
		work.evaluations += w.evaluations
		work.memoized += w.memoized
	}
	r.e2e = e2eMetrics(setups, lat, float64(work.evaluations), sum(lat)/1e3)
	checked, err := checkSweepCrossPath(reqs[len(reqs)-1].sp)
	if err != nil {
		r.failf("%v", err)
	}
	r.counts = map[string]int64{
		"explore.evaluations":         int64(work.evaluations),
		"explore.memoized":            int64(work.memoized),
		"explore.sweep_cases_checked": int64(checked),
	}
	if cfg.trace {
		if err := traceExplore(cfg, r, reqs, stream, lat); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkSweepCrossPath checks that every case of a sweep spec reports the
// same metrics as a single-run RunSpec of the spec at that case's point:
// the legacy table-sweep path against the Engine path.
func checkSweepCrossPath(sp *scenario.Spec) (int, error) {
	rep, err := result.RunSpec(sp, result.Options{Workers: 1})
	if err != nil {
		return 0, err
	}
	cases := sp.Grid().Cases()
	if len(rep.Cases) != len(cases) {
		return 0, fmt.Errorf("%s: sweep reported %d cases, grid has %d", sp.Name, len(rep.Cases), len(cases))
	}
	for i, c := range cases {
		single, err := sp.At(c)
		if err != nil {
			return i, err
		}
		one, err := result.RunSpec(single, result.Options{Workers: 1})
		if err != nil {
			return i, err
		}
		if !maps.Equal(rep.Cases[i].Metrics, one.Cases[0].Metrics) {
			return i, fmt.Errorf("%s case %s: sweep metrics %v, single run %v", sp.Name, c.Name, rep.Cases[i].Metrics, one.Cases[0].Metrics)
		}
	}
	return len(cases), nil
}

// traceExplore is the traced run: the same stream with spans, plus a
// direct scenario.RunModel call per spec request to time the model
// engines apart from result's wrapping.
func traceExplore(cfg config, r *run, reqs []exReq, stream []int, untraced []float64) error {
	tr := newTracer()
	for i, ci := range stream {
		q := &reqs[ci]
		var err error
		tr.do("scenario.compile", -1, i, func() {
			if q.es != nil {
				_, err = explore.Parse(q.data)
			} else {
				_, err = scenario.Parse(q.data)
			}
		})
		if err != nil {
			return err
		}
		if q.sp != nil {
			tr.do("scenario.RunModel", -1, i, func() {
				_, err = scenario.RunModel(q.sp, scenario.RunOptions{Workers: 1})
			})
			if err != nil {
				return err
			}
		}
		if _, err := q.do(tr, i); err != nil {
			return err
		}
	}
	if err := tr.dump(filepath.Join(cfg.out, fmt.Sprintf("spans-explore-seed%d.json", cfg.seed))); err != nil {
		return err
	}

	L := map[string]metric{}
	n := float64(len(stream))
	L["scenario.compile_ms"] = metric{sum(tr.durations("scenario.compile")) / n, "ms"}
	model := tr.durationsBy("scenario.RunModel", func(req int) string { return exploreClasses[stream[req]].name })
	for _, m := range []string{"eneutral", "mpsoc", "taskburst"} {
		L["scenario.run_model_ms."+m] = metric{median(model[m]), "ms"}
	}
	cases := float64(len(reqs[len(reqs)-1].sp.Grid().Cases()))
	L["scenario.sweep_case_ms"] = metric{median(model["sweep"]) / cases, "ms"}
	evals := tr.durations("explore.Evaluate")
	L["explore.eval_ms"] = metric{median(evals), "ms"}
	runs := tr.durations("explore.Run")
	selfExplore := (sum(runs) - sum(evals)) / float64(len(runs))
	L["explore.self_ms"] = metric{selfExplore, "ms"}

	table := []string{latencyLine(untraced),
		fmt.Sprintf("explore: %d evaluations (%d memoized); Evaluate p50 %.3f ms; explore.Run self %.3f ms per run = (%.1f − %.1f ms) / %d runs",
			r.counts["explore.evaluations"], r.counts["explore.memoized"], median(evals), selfExplore, sum(runs), sum(evals), len(runs)),
		fmt.Sprintf("scenario.RunModel p50: eneutral %.3f ms, mpsoc %.3f ms, taskburst %.3f ms; sweep %.3f ms / %.0f cases = %.3f ms per case",
			median(model["eneutral"]), median(model["mpsoc"]), median(model["taskburst"]), median(model["sweep"]), cases, median(model["sweep"])/cases),
		fmt.Sprintf("cross-path check: %d sweep cases equal their single-run metrics", r.counts["explore.sweep_cases_checked"]),
	}
	specLat := tr.durationsBy("request", func(req int) string { return exploreClasses[stream[req]].name })
	for _, c := range exploreClasses {
		table = append(table, fmt.Sprintf("  %-12s %5d requests, traced request p50 %.3f ms", c.name, len(specLat[c.name]), median(specLat[c.name])))
	}
	finishTrace(r, tr, L, table, len(stream), "request", tr.durations("request"), untraced)
	return nil
}
