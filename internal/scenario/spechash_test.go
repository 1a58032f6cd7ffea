package scenario

import (
	"errors"
	"sync"
	"testing"
)

// TestReportCarriesSpecHash pins the content address the driver stamps
// on every report: the hash of the spec handed to RunModel or
// ResumeModel, for every model, as a single run and as a sweep, fresh
// and resumed. A sweep's report carries the sweep spec's hash, not a
// case's. The daemon keys its caches on this hash and the trace CSV
// opens with it, so a report that loses it (or carries another spec's)
// is served under the wrong address.
func TestReportCarriesSpecHash(t *testing.T) {
	singles := map[string]string{
		"lab": `{"name":"x","workload":"fib24","storage":{"c":"10u"},"source":{"name":"dc"},"duration":0.002}`,
	}
	for k, v := range ckptSpecs {
		singles[k] = v
	}
	for _, model := range ModelNames() {
		for _, kind := range []struct {
			name  string
			specs map[string]string
		}{{"single", singles}, {"sweep", ckptSweepSpecs}} {
			src, ok := kind.specs[model]
			if !ok {
				t.Fatalf("no %s spec for model %s", kind.name, model)
			}
			t.Run(model+"/"+kind.name, func(t *testing.T) {
				sp := mustParse(t, src)
				want := mustHash(t, sp)
				fresh, err := RunModel(sp, RunOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if fresh.SpecHash != want {
					t.Errorf("RunModel report SpecHash = %q, want %q", fresh.SpecHash, want)
				}
				var env []byte
				if sp.HasSweep() {
					env = interruptAfterFirstCase(t, sp)
				} else {
					env = interruptRun(t, sp, RunOptions{})
				}
				resumed, err := ResumeModel(sp, env, RunOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if resumed.SpecHash != want {
					t.Errorf("ResumeModel report SpecHash = %q, want %q", resumed.SpecHash, want)
				}
				if !sp.HasSweep() {
					return
				}
				cs, err := sp.At(sp.Grid().Cases()[0])
				if err != nil {
					t.Fatal(err)
				}
				if mustHash(t, cs) == want {
					t.Fatal("the sweep and its first case hash alike; the check cannot tell them apart")
				}
			})
		}
	}
}

// interruptAfterFirstCase runs a sweep on one worker and checkpoints it
// as soon as its first case is done, so the envelope carries a
// completed prefix for ResumeModel to restore.
func interruptAfterFirstCase(t *testing.T, sp *Spec) []byte {
	t.Helper()
	ckpt := make(chan struct{})
	var once sync.Once
	_, err := RunModel(sp, RunOptions{
		Workers:    1,
		Checkpoint: ckpt,
		Progress:   func(int, int) { once.Do(func() { close(ckpt) }) },
	})
	var ce *CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("RunModel checkpointed after one case: got %v, want *CheckpointError", err)
	}
	return ce.State
}
