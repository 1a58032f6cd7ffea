package explore

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// synBase is a cheap, valid mpsoc base for synthetic-evaluator tests —
// the model never actually runs, so tests exercise the explorer's
// control flow in microseconds.
const synBase = `{"name":"syn","model":"mpsoc","source":{"name":"const-power","params":{"p":2}},"duration":60,"dt":1}`

func mustSpec(t *testing.T, js string) *Spec {
	t.Helper()
	s, err := Parse([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// synEval returns an evaluator computing mean_fps as f(scale, p) — a
// pure function of the derived spec, safe for any worker count.
func synEval(f func(scale, p float64) float64) Evaluator {
	return func(sp *scenario.Spec) (Outcome, error) {
		scale := 1.0
		if v, ok := sp.Params["scale"]; ok {
			scale = float64(v)
		}
		p := float64(sp.Source.Params["p"])
		return Outcome{Metrics: map[string]float64{"mean_fps": f(scale, p)}, SimSeconds: 1}, nil
	}
}

func TestBisectFindsSyntheticCrossover(t *testing.T) {
	s := mustSpec(t, `{
		"name": "syn-bisect",
		"base": `+synBase+`,
		"strategy": {
			"kind": "bisect", "param": "source.p",
			"lo": 0.1, "hi": 0.9, "tolerance": 0.01,
			"objective": "mean_fps",
			"a": {"name": "steep", "set": [{"param": "model.scale", "value": 1}]},
			"b": {"name": "flat",  "set": [{"param": "model.scale", "value": 2}]}
		}
	}`)
	// Δ = f(1, p) − f(2, p) = p² − 0.09: one root at p = 0.3.
	eval := synEval(func(scale, p float64) float64 {
		if scale == 1 {
			return p * p
		}
		return 0.09
	})
	rep, err := Run(s, Options{Evaluate: eval, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Crossover
	if c == nil {
		t.Fatal("no crossover")
	}
	if math.Abs(c.Value-0.3) > 0.01 {
		t.Errorf("crossover %g, want 0.3 ± 0.01", c.Value)
	}
	if c.Hi-c.Lo > 0.01 {
		t.Errorf("bracket [%g, %g] wider than tolerance", c.Lo, c.Hi)
	}
	// 2 bracket-end probes + ceil(log2(0.8/0.01)) = 7 midpoints, 2
	// evaluations each.
	if want := 2 * (2 + 7); rep.Evaluations != want {
		t.Errorf("evaluations = %d, want %d", rep.Evaluations, want)
	}
	if !strings.Contains(rep.Text, "crossover:          source.p = ") {
		t.Errorf("report lacks the crossover line:\n%s", rep.Text)
	}
}

func TestBisectNoCrossoverIsAnError(t *testing.T) {
	s := mustSpec(t, `{
		"name": "syn-flat",
		"base": `+synBase+`,
		"strategy": {
			"kind": "bisect", "param": "source.p",
			"lo": 0.1, "hi": 0.9, "tolerance": 0.01,
			"objective": "mean_fps",
			"a": {"name": "up", "set": [{"param": "model.scale", "value": 1}]},
			"b": {"name": "down", "set": [{"param": "model.scale", "value": 2}]}
		}
	}`)
	eval := synEval(func(scale, p float64) float64 { return scale }) // Δ = -1 everywhere
	_, err := Run(s, Options{Evaluate: eval})
	if err == nil || !strings.Contains(err.Error(), "no crossover") {
		t.Fatalf("want a no-crossover error, got %v", err)
	}
}

func TestRefineConvergesAndMemoizes(t *testing.T) {
	s := mustSpec(t, `{
		"name": "syn-refine",
		"base": `+synBase+`,
		"strategy": {
			"kind": "refine",
			"refine": [{"param": "model.scale", "lo": 0.25, "hi": 1.25, "points": 5}],
			"rounds": 3, "objective": "mean_fps", "goal": "max"
		},
		"aggregators": [{"kind": "topk", "k": 2, "metric": "mean_fps", "goal": "max"}]
	}`)
	// Peak at scale = 0.5, a round-1 grid point; later rounds re-center
	// on it, and because every coordinate here is a dyadic rational the
	// shared grid points hash to identical memo keys.
	eval := synEval(func(scale, p float64) float64 { return -(scale - 0.5) * (scale - 0.5) })
	rep, err := Run(s, Options{Evaluate: eval, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incumbent == nil || rep.Incumbent.Case != "model.scale=0.5" {
		t.Fatalf("incumbent = %+v, want model.scale=0.5", rep.Incumbent)
	}
	// Round 1: 5 fresh. Round 2 box [0.25, 0.75]: 0.25/0.5/0.75
	// memoized, 2 fresh. Round 3 box [0.375, 0.625]: 3 memoized, 2 fresh.
	if rep.Evaluations != 9 || rep.Memoized != 6 {
		t.Errorf("evaluations/memoized = %d/%d, want 9/6", rep.Evaluations, rep.Memoized)
	}
	if len(rep.Aggregates) != 1 || len(rep.Aggregates[0]) != 2 {
		t.Fatalf("topk aggregate = %+v", rep.Aggregates)
	}
	if rep.Aggregates[0][0].Case != "model.scale=0.5" {
		t.Errorf("topk winner %q, want the peak", rep.Aggregates[0][0].Case)
	}
}

func TestGridDeterministicAcrossWorkers(t *testing.T) {
	js := `{
		"name": "syn-grid",
		"base": ` + synBase + `,
		"strategy": {"kind": "grid", "axes": [
			{"param": "model.scale", "values": [0.5, 1, 1.5, 2]},
			{"param": "source.p", "values": [1, 2, 3]}
		]},
		"aggregators": [
			{"kind": "topk", "k": 3, "metric": "mean_fps", "goal": "min"},
			{"kind": "pareto", "metrics": ["mean_fps", "used_w"], "senses": ["max", "min"]}
		]
	}`
	eval := func(sp *scenario.Spec) (Outcome, error) {
		scale := float64(sp.Params["scale"])
		p := float64(sp.Source.Params["p"])
		return Outcome{Metrics: map[string]float64{
			"mean_fps": scale * p,
			"used_w":   scale + p,
		}}, nil
	}
	var texts []string
	for _, workers := range []int{1, 8} {
		rep, err := Run(mustSpec(t, js), Options{Evaluate: eval, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Evaluations != 12 {
			t.Fatalf("evaluations = %d, want 12", rep.Evaluations)
		}
		texts = append(texts, rep.Text)
	}
	if texts[0] != texts[1] {
		t.Errorf("grid report differs across worker counts:\n%s\n---\n%s", texts[0], texts[1])
	}
}

func TestUndefinedObjectiveSkipsAndErrors(t *testing.T) {
	// topk skips cases missing its metric and says so in the report.
	s := mustSpec(t, `{
		"name": "syn-skip",
		"base": `+synBase+`,
		"strategy": {"kind": "grid", "axes": [{"param": "source.p", "values": [1, 2, 3]}]},
		"aggregators": [{"kind": "topk", "k": 2, "metric": "frames", "goal": "max"}]
	}`)
	eval := func(sp *scenario.Spec) (Outcome, error) {
		m := map[string]float64{"mean_fps": 1}
		if float64(sp.Source.Params["p"]) > 1.5 {
			m["frames"] = float64(sp.Source.Params["p"])
		}
		return Outcome{Metrics: m}, nil
	}
	rep, err := Run(s, Options{Evaluate: eval})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "(1 cases skipped: frames undefined)") {
		t.Errorf("report does not surface the skipped case:\n%s", rep.Text)
	}
	// A bisection objective that is undefined at a probe is an error —
	// the crossover would be meaningless.
	b := mustSpec(t, `{
		"name": "syn-undef",
		"base": `+synBase+`,
		"strategy": {
			"kind": "bisect", "param": "source.p",
			"lo": 0.1, "hi": 0.9, "tolerance": 0.01,
			"objective": "frames",
			"a": {"name": "x", "set": [{"param": "model.scale", "value": 1}]},
			"b": {"name": "y", "set": [{"param": "model.scale", "value": 2}]}
		}
	}`)
	none := func(sp *scenario.Spec) (Outcome, error) {
		return Outcome{Metrics: map[string]float64{"mean_fps": 0}}, nil
	}
	if _, err := Run(b, Options{Evaluate: none}); err == nil || !strings.Contains(err.Error(), `no "frames"`) {
		t.Fatalf("want an undefined-objective error, got %v", err)
	}
}

func TestParetoStreamingDominance(t *testing.T) {
	p := newAggregator(Aggregator{Kind: "pareto", Metrics: []string{"a", "b"}, Senses: []string{"min", "max"}, Capacity: 3}).(*pareto)
	add := func(seq int, a, b float64) {
		p.add(Eval{Seq: seq, Case: fmt.Sprintf("e%d", seq), Metrics: map[string]float64{"a": a, "b": b}})
	}
	add(0, 2, 2)     // first point: trivially on the frontier
	add(1, 3, 1)     // worse on both axes → dominated by e0, discarded
	add(2, 1, 1)     // cheaper but slower → non-dominated, joins
	add(3, 0.5, 1.5) // dominates e2 on both axes → evicts it; trades off against e0
	if got := p.results(); len(got) != 2 || got[0].Case != "e3" || got[1].Case != "e0" {
		t.Fatalf("frontier = %+v, want [e3 e0]", got)
	}
	// Fill past capacity with mutually non-dominated points; the worst
	// by the first metric (e0, a=2) is dropped deterministically.
	add(4, 1, 1.8)
	add(5, 0.25, 1)
	if p.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", p.dropped)
	}
	got := p.results()
	if len(got) != 3 {
		t.Fatalf("frontier size = %d, want capacity 3", len(got))
	}
	for _, e := range got {
		if e.Case == "e0" {
			t.Errorf("capacity eviction kept the worst-by-first-metric point: %+v", got)
		}
	}
}

func TestTopKTieBreaksBySequence(t *testing.T) {
	k := newAggregator(Aggregator{Kind: "topk", K: 2, Metric: "m", Goal: "max"}).(*topK)
	for seq, v := range []float64{5, 5, 5, 7} {
		k.add(Eval{Seq: seq, Case: fmt.Sprintf("e%d", seq), Metrics: map[string]float64{"m": v}})
	}
	got := k.results()
	if len(got) != 2 || got[0].Case != "e3" || got[1].Case != "e0" {
		t.Fatalf("topk = %+v, want [e3 e0] (ties to the earlier case)", got)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		js   string
		want []string
	}{
		{"base with sweep",
			`{"name":"x","base":{"name":"b","model":"mpsoc","source":{"name":"const-power"},"duration":1,
				"sweep":[{"param":"dt","values":[1]}]},
			 "strategy":{"kind":"grid","axes":[{"param":"dt","values":[1]}]},
			 "aggregators":[{"kind":"topk","k":1,"metric":"frames"}]}`,
			[]string{"sweep-free"}},
		{"unknown strategy",
			`{"name":"x","base":` + synBase + `,"strategy":{"kind":"anneal"}}`,
			[]string{"anneal", "grid, bisect, refine"}},
		{"undocumented objective",
			`{"name":"x","base":` + synBase + `,
			 "strategy":{"kind":"bisect","param":"source.p","lo":0.1,"hi":1,"tolerance":0.01,
				"objective":"joules","a":{"name":"a"},"b":{"name":"b"}}}`,
			[]string{`"joules"`, "mpsoc", "mean_fps"}},
		{"tolerance wider than bracket",
			`{"name":"x","base":` + synBase + `,
			 "strategy":{"kind":"bisect","param":"source.p","lo":0.1,"hi":0.2,"tolerance":0.5,
				"objective":"mean_fps","a":{"name":"a"},"b":{"name":"b"}}}`,
			[]string{"tolerance", "span"}},
		{"grid without aggregators",
			`{"name":"x","base":` + synBase + `,
			 "strategy":{"kind":"grid","axes":[{"param":"source.p","values":[1,2]}]}}`,
			[]string{"aggregator", "sweep"}},
		{"pareto sense mismatch",
			`{"name":"x","base":` + synBase + `,
			 "strategy":{"kind":"grid","axes":[{"param":"source.p","values":[1,2]}]},
			 "aggregators":[{"kind":"pareto","metrics":["used_w","mean_fps"],"senses":["min"]}]}`,
			[]string{"one sense per metric"}},
		{"topk without k",
			`{"name":"x","base":` + synBase + `,
			 "strategy":{"kind":"grid","axes":[{"param":"source.p","values":[1,2]}]},
			 "aggregators":[{"kind":"topk","metric":"frames"}]}`,
			[]string{"k ≥ 1"}},
		{"refine lo >= hi",
			`{"name":"x","base":` + synBase + `,
			 "strategy":{"kind":"refine","refine":[{"param":"source.p","lo":2,"hi":1}],
				"objective":"mean_fps"},
			 "aggregators":[{"kind":"topk","k":1,"metric":"mean_fps"}]}`,
			[]string{"lo < hi"}},
		{"bad axis param surfaces at parse",
			`{"name":"x","base":` + synBase + `,
			 "strategy":{"kind":"grid","axes":[{"param":"warp","values":[1,2]}]},
			 "aggregators":[{"kind":"topk","k":1,"metric":"mean_fps"}]}`,
			[]string{"warp"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.js))
			if err == nil {
				t.Fatal("expected error")
			}
			for _, frag := range tc.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q should contain %q", err, frag)
				}
			}
		})
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	a := `{"name":"a","base":` + synBase + `,
		"strategy":{"kind":"grid","axes":[{"param":"source.p","values":[1,2]}]},
		"aggregators":[{"kind":"topk","k":1,"metric":"mean_fps"}]}`
	b := strings.Replace(a, `"name":"a"`, `"name":"b"`, 1)
	for _, tc := range []struct {
		name, data string
		ok         bool
	}{
		{"two explorations", a + b, false},
		{"exploration then junk", a + " x", false},
		{"trailing newline", a + "\n", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(tc.data))
			if tc.ok {
				if err != nil || s.Name != "a" {
					t.Fatalf("got %v, %v; want exploration a", s, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "after the exploration") {
				t.Fatalf("got %v, want a trailing-data error", err)
			}
		})
	}
}

func TestHashIsStableAndSensitive(t *testing.T) {
	s1 := mustSpec(t, `{"name":"x","base":`+synBase+`,
		"strategy":{"kind":"grid","axes":[{"param":"source.p","values":[1,2]}]},
		"aggregators":[{"kind":"topk","k":1,"metric":"mean_fps"}]}`)
	s2 := mustSpec(t, `{"name":"x","base":`+synBase+`,
		"strategy":{"kind":"grid","axes":[{"param":"source.p","values":[1,2]}]},
		"aggregators":[{"kind":"topk","k":2,"metric":"mean_fps"}]}`)
	h1a, err := s1.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h1b, _ := s1.Hash()
	h2, _ := s2.Hash()
	if h1a != h1b {
		t.Error("hash not stable across calls")
	}
	if h1a == h2 {
		t.Error("k=1 and k=2 explorations must have distinct hashes")
	}
}
