package scenario

import (
	"reflect"
	"testing"

	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/programs"
	"repro/internal/source"
	"repro/internal/transient"
)

// ffCapacitances are the storage sizes the fast-forward oracle draws
// from: an undersized, the standard and a generous rail.
var ffCapacitances = []Value{4.7e-6, 10e-6, 47e-6}

// ffSpec builds the lab spec the indices select from the registries:
// workload × voltage source × runtime × storage, 0.3 s at the default
// step. It carries no governor block: fast-forward lets OnTick observe
// chunk boundaries only, so a governed run may legitimately differ.
func ffSpec(workload, src, runtime, c uint8) *Spec {
	workloads, voltage, runtimes := programs.Names(), voltageSources(), transient.RuntimeNames()
	return &Spec{
		Name:     "ff-oracle",
		Workload: workloads[int(workload)%len(workloads)],
		Storage:  StorageSpec{C: ffCapacitances[int(c)%len(ffCapacitances)]},
		Source:   SourceSpec{Name: voltage[int(src)%len(voltage)]},
		Runtime:  RuntimeSpec{Name: runtimes[int(runtime)%len(runtimes)]},
		Duration: 0.3,
	}
}

// voltageSources lists the registry's voltage-kind sources, the ones a
// lab rail charges from through its diode.
func voltageSources() []string {
	var out []string
	for _, n := range source.Names() {
		if e, _ := source.Lookup(n); !e.Power {
			out = append(out, n)
		}
	}
	return out
}

// nameIndex returns name's position in names as a fuzz index.
func nameIndex(f *testing.F, names []string, name string) uint8 {
	for i, n := range names {
		if n == name {
			return uint8(i)
		}
	}
	f.Fatalf("%q is not registered (have %v)", name, names)
	return 0
}

// FuzzFastForwardMatchesStepwise is the oracle for the lab's fast-forward
// contract (lab.Setup.FastForward): hopping idle decay and supply
// plateaus in closed form must land every discrete event on the step
// full integration would use. Each input runs one registry-built spec
// with fast-forward off and on and requires identical completions,
// wrong results and completion times, an identical mcu.Stats — event
// counts, per-mode seconds, the longest on-stretch and cycles run —
// identical radio packet counts for a workload that drives the
// peripheral bank, and identical end-of-run V_H and V_R for a
// hibernus-family runtime.
func FuzzFastForwardMatchesStepwise(f *testing.F) {
	// Seeds by registry name, so they keep their meaning as the
	// registries grow.
	for _, seed := range []struct {
		workload, src, runtime string
		c                      uint8 // index into ffCapacitances
	}{
		{"sieve3000", "square", "hibernus", 1},
		{"sieve3000", "square", "mementos", 0},
		{"fft64", "rectified-sine", "hibernus", 1},
		{"fft64", "square", "quickrecall", 2},
		{"crc256", "dc", "none", 0},
		{"matmul8", "rf", "hibernus++", 1},
		{"fib24", "sine", "hibernus-pn", 2},
		{"fft128", "solar", "nvp", 0},
		{"sieve1000", "rectified-sine", "mementos", 2},
		{"crc64", "square", "none", 1},
		{"sense64", "square", "hibernus-periph", 1},
		{"sense64", "square", "hibernus", 1},
	} {
		f.Add(nameIndex(f, programs.Names(), seed.workload), nameIndex(f, voltageSources(), seed.src),
			nameIndex(f, transient.RuntimeNames(), seed.runtime), seed.c)
	}
	f.Fuzz(func(t *testing.T, workload, src, runtime, c uint8) {
		sp := ffSpec(workload, src, runtime, c)
		stepwise, hopped := runFF(t, sp, false), runFF(t, sp, true)
		if !reflect.DeepEqual(hopped, stepwise) {
			t.Errorf("%s on %s under %s at %s:\n  fast-forward %+v\n  stepwise     %+v",
				sp.Workload, sp.Source.Name, sp.Runtime.Name, AxisLabel("c", float64(sp.Storage.C)),
				hopped, stepwise)
		}
	})
}

// ffOutcome is the part of a lab run fast-forward must leave exact.
type ffOutcome struct {
	Completions, WrongResults int
	CompletionTimes           []float64
	Stats                     mcu.Stats
	TxDelivered, TxDropped    int
	Hibernates                bool
	VH, VR                    float64
}

// runFF runs the spec through RunModel with fast-forward set as given.
func runFF(t *testing.T, sp *Spec, ff bool) ffOutcome {
	t.Helper()
	run := sp.Clone()
	run.FastForward = ff
	rep, err := RunModel(run, RunOptions{})
	if err != nil {
		t.Fatalf("fastforward=%v: %v", ff, err)
	}
	res := rep.Cases[0].Result
	return ffOutcome{res.Completions, res.WrongResults, res.CompletionTimes, res.Stats,
		res.TxDelivered, res.TxDropped, res.Hibernates, res.VH, res.VR}
}

// TestFastForwardPowerSourceMatchesStepwise: a power source never hops
// (no closed form covers its rail-voltage-dependent charging), so a
// curated PV-powered lab run with fast-forward on must produce exactly
// the lab.Result of the stepwise run, energies and final voltage
// included.
func TestFastForwardPowerSourceMatchesStepwise(t *testing.T) {
	var res [2]lab.Result
	for i, ff := range []bool{false, true} {
		rep, err := RunModel(gateSpec(t, "eneutral-duty-cycle", "", ff), RunOptions{})
		if err != nil {
			t.Fatalf("fastforward=%v: %v", ff, err)
		}
		res[i] = rep.Cases[0].Result
	}
	if res[0].Completions == 0 {
		t.Fatal("the stepwise run completed nothing; the comparison would be vacuous")
	}
	if !reflect.DeepEqual(res[1], res[0]) {
		t.Errorf("fast-forward %+v\nstepwise     %+v", res[1], res[0])
	}
}
