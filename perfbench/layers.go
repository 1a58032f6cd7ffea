package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/circuit"
	"repro/internal/isa"
	"repro/internal/lab"
	"repro/internal/source"
)

// selfLayers are the modules whose span self time the traced run
// reports; "request" is the benchmark's own loop around the calls.
var selfLayers = []string{"request", "scenario", "lab", "result", "explore", "service", "cas", "trace"}

// layerCatalogue lists every per-layer metric with its unit, in the
// order of BENCHMARK.json. A traced run reports each of them; a layer
// the workload does not exercise reads 0.
func layerCatalogue() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	add("count", "lab.steps", "mcu.cycles", "lab.completions", "mcu.saves_done", "mcu.restores", "mcu.brownouts")
	add("ms", "scenario.compile_ms")
	for _, c := range labClasses {
		add("ms", "lab.run_ms."+c.name, "result.render_ms."+c.name, "lab.unattributed_ms."+c.name,
			"lab.ff_ms."+c.name, "lab.stepwise_ms."+c.name)
		add("1", "lab.ff_ratio."+c.name)
	}
	add("ns", "isa.ns_per_cycle", "circuit.ns_per_step", "source.ns_per_sample")
	add("ms", "lab.unattributed_ms")
	add("count", "explore.evaluations", "explore.memoized", "explore.sweep_cases_checked")
	add("ms", "explore.eval_ms", "explore.self_ms",
		"scenario.run_model_ms.eneutral", "scenario.run_model_ms.mpsoc", "scenario.run_model_ms.taskburst",
		"scenario.sweep_case_ms")
	add("count", "service.requests.cache", "service.requests.disk", "service.requests.compute")
	add("ms", "service.latency_ms_p50.cache", "service.latency_ms_p50.disk", "service.latency_ms_p50.compute",
		"scenario.hash_ms", "result.run_ms", "result.run_trace_ms", "result.write_trace_ms",
		"result.encode_ms", "result.decode_ms", "trace.encode_ms", "trace.decode_ms",
		"cas.put_ms", "cas.get_ms")
	add("bytes", "cas.blob_bytes")
	add("count", "service.metrics.cache_hits_total", "service.metrics.disk_hits_total", "service.metrics.cache_misses_total")
	add("s", "service.metrics.sim_seconds_total")
	add("1", "service.write_trace_share.compute", "service.write_trace_share.disk")
	for _, l := range selfLayers {
		add("ms", "self_ms."+l)
	}
	add("ms", "trace.overhead_ms")
	return out
}

// completeLayers returns the catalogue's metrics, taking measured
// values where the workload produced them and 0 elsewhere.
func completeLayers(measured map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range layerCatalogue() {
		v, ok := measured[m.name]
		if !ok {
			v = metric{0, m.unit}
		}
		out[m.name] = metric{v.Value, m.unit}
	}
	for k := range measured {
		if _, ok := out[k]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: per-layer metric %s is not in the catalogue\n", k)
		}
	}
	return out
}

// labLayerCost is the standalone cost of a lab class's inner layers.
type labLayerCost struct {
	isaNS  float64 // Core.RunBudget on the class's program, per guest cycle
	railNS float64 // Rail.Step with no source and a constant load, per step
	srcNS  float64 // the supply's sampler (source.VoltageFn/PowerFn), per sample
}

// sink keeps sampled values live so the compiler cannot drop the calls.
var sink float64

// measureLabLayers times each lab class's layers standalone, averaged
// over the class's cases, median of three repetitions each.
func measureLabLayers(reqs []labReq) ([]labLayerCost, error) {
	out := make([]labLayerCost, len(reqs))
	for i, q := range reqs {
		sts, err := labSetups(q.sp)
		if err != nil {
			return nil, err
		}
		for _, st := range sts {
			isaNS, err := isaNSPerCycle(st)
			if err != nil {
				return nil, err
			}
			out[i].isaNS += isaNS / float64(len(sts))
			out[i].railNS += railNSPerStep(st) / float64(len(sts))
			out[i].srcNS += sourceNSPerSample(st) / float64(len(sts))
		}
	}
	return out, nil
}

// rep3 returns the median of three calls of f.
func rep3(f func() float64) float64 {
	return median([]float64{f(), f(), f()})
}

// isaNSPerCycle runs the setup's guest program on a bare core over flat
// memory — no device, no rail — for a fixed cycle budget.
func isaNSPerCycle(st lab.Setup) (float64, error) {
	prog, err := isa.Assemble(st.Workload.Source)
	if err != nil {
		return 0, err
	}
	var runErr error
	ns := rep3(func() float64 {
		ram := &isa.FlatRAM{}
		prog.LoadInto(ram)
		c := &isa.Core{Bus: ram, Sys: func(uint16, *isa.Core) {}}
		c.Reset(prog.Entry)
		c.R[isa.SP] = 0xff00
		const budget = 4_000_000
		var cycles uint64
		t0 := time.Now()
		for cycles < budget && runErr == nil {
			if c.Halted {
				c.Reset(prog.Entry)
				c.R[isa.SP] = 0xff00
			}
			var spent uint64
			_, spent, runErr = c.RunBudget(100_000)
			cycles += spent
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(cycles)
	})
	return ns, runErr
}

const layerSteps = 500_000

func stepDt(st lab.Setup) float64 {
	if st.Dt > 0 {
		return st.Dt
	}
	return 5e-6
}

// railNSPerStep integrates a sourceless rail with the setup's storage
// and a constant 1 mA load.
func railNSPerStep(st lab.Setup) float64 {
	dt := stepDt(st)
	return rep3(func() float64 {
		cap := circuit.NewCapacitor(st.C, 3.3)
		cap.LeakR = st.LeakR
		rail := circuit.NewRail(cap)
		rail.AddLoad(&circuit.ConstantCurrentLoad{I: 1e-3})
		t0 := time.Now()
		for i := 0; i < layerSteps; i++ {
			sink += rail.Step(dt)
		}
		return float64(time.Since(t0).Nanoseconds()) / layerSteps
	})
}

// sourceNSPerSample samples the setup's supply at the stepping cadence.
func sourceNSPerSample(st lab.Setup) float64 {
	var fns []func(float64) float64
	if st.VSource != nil {
		fns = append(fns, source.VoltageFn(st.VSource))
	}
	if st.PSource != nil {
		fns = append(fns, source.PowerFn(st.PSource))
	}
	dt := stepDt(st)
	return rep3(func() float64 {
		t0 := time.Now()
		for i := 0; i < layerSteps; i++ {
			t := float64(i) * dt
			for _, f := range fns {
				sink += f(t)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / layerSteps
	})
}
