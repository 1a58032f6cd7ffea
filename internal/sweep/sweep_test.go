package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/programs"
	"repro/internal/source"
)

// smallSetup is a cheap but real lab scenario (a few ms of simulated time)
// whose result depends visibly on the swept capacitance.
func smallSetup(c float64) lab.Setup {
	return lab.Setup{
		Workload: programs.Fib(10, programs.DefaultLayout()),
		Params:   mcu.DefaultParams(),
		VSource:  &source.ConstantVoltage{V: 3.3, Rs: 50},
		C:        c,
		Duration: 0.02,
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	out, err := Map(&Runner{Workers: 4}, 16, func(c Case) (int, error) {
		return c.Index * c.Index, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestDeterminismAcrossWorkerCounts is the engine's core contract: the same
// sweep must produce identical results on one worker and on many,
// regardless of GOMAXPROCS.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	caps := []float64{2e-6, 4.7e-6, 10e-6, 22e-6, 47e-6, 100e-6}
	run := func(workers, procs int) []lab.Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := Map(&Runner{Workers: workers}, len(caps), func(c Case) (lab.Result, error) {
			return lab.Run(smallSetup(caps[c.Index]))
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1, 1)
	for _, cfg := range []struct{ workers, procs int }{{2, 2}, {8, 4}, {6, 8}} {
		parallel := run(cfg.workers, cfg.procs)
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", cfg.workers, len(parallel), len(serial))
		}
		for i := range serial {
			a, b := serial[i], parallel[i]
			// CompletionTimes is a slice; compare it and the scalar fields
			// exactly — bit-identical floats, not approximately equal.
			if a.Completions != b.Completions || a.ConsumedJ != b.ConsumedJ ||
				a.HarvestedJ != b.HarvestedJ || a.FinalV != b.FinalV ||
				!reflect.DeepEqual(a.CompletionTimes, b.CompletionTimes) ||
				a.Stats != b.Stats {
				t.Errorf("workers=%d procs=%d: case %d diverged from serial run",
					cfg.workers, cfg.procs, i)
			}
		}
	}
}

func TestErrorPropagatesLowestIndex(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		out, err := Map(&Runner{Workers: workers}, 64, func(c Case) (int, error) {
			if c.Index == 7 || c.Index == 40 {
				return 0, fmt.Errorf("case %d: %w", c.Index, boom)
			}
			return c.Index, nil
		})
		if out != nil {
			t.Errorf("workers=%d: results must be nil on error", workers)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error chain lost: %v", workers, err)
		}
		// The reported failure must be the lowest-indexed one — case 7 —
		// no matter how the pool scheduled case 40.
		if !strings.Contains(err.Error(), "case 7") {
			t.Errorf("workers=%d: err = %v, want the case-7 failure", workers, err)
		}
	}
}

func TestErrorStopsClaimingNewCases(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(&Runner{Workers: 1}, 1000, func(c Case) (int, error) {
		ran.Add(1)
		if c.Index == 3 {
			return 0, errors.New("fail fast")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n > 10 {
		t.Errorf("ran %d cases after the failure; claiming should stop", n)
	}
}

func TestProgressReporting(t *testing.T) {
	var calls []int
	last := 0
	_, err := Map(&Runner{Workers: 4, OnProgress: func(done, total int) {
		if total != 20 {
			t.Errorf("total = %d, want 20", total)
		}
		if done != last+1 {
			t.Errorf("done jumped %d → %d; must be strictly increasing by 1", last, done)
		}
		last = done
		calls = append(calls, done)
	}}, 20, func(c Case) (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 20 {
		t.Errorf("OnProgress called %d times, want 20", len(calls))
	}
}

func TestNilRunnerAndZeroCases(t *testing.T) {
	out, err := Map[int](nil, 0, func(c Case) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: out=%v err=%v", out, err)
	}
	got, err := Map(nil, 3, func(c Case) (int, error) { return c.Index + 1, nil })
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("nil runner: out=%v err=%v", got, err)
	}
}

func TestGridCrossProduct(t *testing.T) {
	g := NewGrid().
		Floats("c", 10e-6, 47e-6, 100e-6).
		Axis("runtime", "hibernus", "quickrecall")
	if g.Size() != 6 {
		t.Fatalf("size = %d, want 6", g.Size())
	}
	cases := g.Cases()
	// Row-major: first axis slowest, last fastest.
	want := []struct {
		c  float64
		rt string
	}{
		{10e-6, "hibernus"}, {10e-6, "quickrecall"},
		{47e-6, "hibernus"}, {47e-6, "quickrecall"},
		{100e-6, "hibernus"}, {100e-6, "quickrecall"},
	}
	for i, w := range want {
		if cases[i].Values["c"] != w.c || cases[i].Values["runtime"] != w.rt {
			t.Errorf("case %d = %v, want c=%g runtime=%s", i, cases[i].Values, w.c, w.rt)
		}
		if cases[i].Index != i {
			t.Errorf("case %d has Index %d", i, cases[i].Index)
		}
		if !strings.Contains(cases[i].Name, "c=") || !strings.Contains(cases[i].Name, "runtime=") {
			t.Errorf("case %d name %q missing axis labels", i, cases[i].Name)
		}
	}
}

func TestGridLabelsAndAccessors(t *testing.T) {
	g := NewGrid().
		Floats("c", 10e-6, 330e-6).Labels("10µF", "330µF").
		Axis("freq", 2, 5).
		Axis("policy", "hillclimb", "proportional")
	cases := g.Cases()
	if len(cases) != 8 {
		t.Fatalf("size = %d, want 8", len(cases))
	}
	first := cases[0]
	if !strings.Contains(first.Name, "c=10µF") {
		t.Errorf("label override not applied: %q", first.Name)
	}
	if first.Values["freq"] != 2 {
		t.Errorf("freq value = %v", first.Values["freq"])
	}
	if first.Values["policy"].(string) != "hillclimb" {
		t.Errorf("policy value = %v", first.Values["policy"])
	}
}

func TestMapCasesRunsEveryGridCell(t *testing.T) {
	g := NewGrid().Axis("a", 0, 1, 2).Axis("b", 0, 1)
	out, err := MapCases(&Runner{Workers: 3}, g.Cases(), func(c Case) (string, error) {
		return fmt.Sprintf("%v%v", c.Values["a"], c.Values["b"]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"00", "01", "10", "11", "20", "21"}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("grid order = %v, want %v", out, want)
	}
}
