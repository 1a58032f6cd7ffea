package scenario

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// Checkpoint/resume equivalence: the engine contract promises that a
// run suspended by a checkpoint and resumed later is byte-identical —
// report text and trace — to an uninterrupted run of the same spec.
// These tests pin that promise for all four models, through both the
// driver path (RunModel interrupted by the Checkpoint channel) and
// mid-run engine stepping.

// ckptSpecs are single-run specs sized so the analytic engines need
// several Steps (> analyticChunk integration steps), making a mid-run
// checkpoint capture genuinely partial state. The PV-powered runs read
// the shared harvest table, so a resumed run must find its place in it:
// eneutral-pv resumes in daylight (t = 16384·4 s ≈ 18.2 h), taskburst-pv
// at night with the day still ahead.
var ckptSpecs = map[string]string{
	"eneutral":     `{"name":"x","model":"eneutral","source":{"name":"const-power","params":{"p":"50m"}},"duration":30000}`,
	"taskburst":    `{"name":"x","model":"taskburst","storage":{"c":"6m"},"source":{"name":"const-power","params":{"p":"2m"}},"duration":2}`,
	"mpsoc":        `{"name":"x","model":"mpsoc","source":{"name":"const-power","params":{"p":2}},"duration":30000,"dt":1}`,
	"eneutral-pv":  `{"name":"x","model":"eneutral","source":{"name":"pv"},"duration":86400,"dt":4}`,
	"taskburst-pv": `{"name":"x","model":"taskburst","storage":{"c":"6m"},"source":{"name":"pv"},"duration":86400,"dt":1}`,
}

// tracesEqual compares two recorders through the lossless columnar
// codec (result.WriteTrace renders deterministically from the recorder,
// so codec equality implies CSV equality).
func tracesEqual(a, b *trace.Recorder) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return bytes.Equal(trace.EncodeRecorder(a), trace.EncodeRecorder(b))
}

// interruptRun drives sp through RunModel with a pre-fired Checkpoint
// channel and returns the envelope.
func interruptRun(t *testing.T, sp *Spec, opts RunOptions) []byte {
	t.Helper()
	ckpt := make(chan struct{})
	close(ckpt)
	opts.Checkpoint = ckpt
	_, err := RunModel(sp, opts)
	var ce *CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("RunModel with fired checkpoint channel: got %v, want *CheckpointError", err)
	}
	return ce.State
}

func TestDriverCheckpointResumeIdentical(t *testing.T) {
	// Driver path, all four models: interrupt before the first step,
	// resume, require byte-identical output. The lab model's single-run
	// engine can only checkpoint as a restart marker (cycle-level MCU
	// state is not serialised), so this pre-step interruption is exactly
	// its supported checkpoint; the analytic models capture t=0 state.
	specs := map[string]string{
		"lab": `{"name":"x","workload":"fib24","storage":{"c":"10u"},"source":{"name":"dc"},"duration":0.002}`,
	}
	for k, v := range ckptSpecs {
		specs[k] = v
	}
	for name, src := range specs {
		t.Run(name, func(t *testing.T) {
			sp := mustParse(t, src)
			want, err := RunModel(sp, RunOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			env := interruptRun(t, sp, RunOptions{Trace: true})
			got, err := ResumeModel(sp, env, RunOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if got.Text != want.Text {
				t.Errorf("resumed text differs:\n--- uninterrupted ---\n%s--- resumed ---\n%s", want.Text, got.Text)
			}
			if !tracesEqual(got.Trace, want.Trace) {
				t.Error("resumed trace differs from uninterrupted trace")
			}
		})
	}
}

func TestMidRunCheckpointResumeIdentical(t *testing.T) {
	// Analytic models, genuinely partial state: step the engine directly
	// past the first chunk, checkpoint, resume, and require the report
	// and trace to match an uninterrupted run byte for byte. The resumed
	// options deliberately omit Trace — whether the run records is the
	// checkpoint's decision, since the interrupted run was recording.
	for name, src := range ckptSpecs {
		t.Run(name, func(t *testing.T) {
			sp := mustParse(t, src)
			want, err := RunModel(sp, RunOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			m, err := LookupModel(sp.ModelName())
			if err != nil {
				t.Fatal(err)
			}
			eng, err := m.Engine(sp, RunOptions{Trace: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			if eng.Done() {
				t.Fatalf("spec completed in one step — grow it so the checkpoint is mid-run")
			}
			state, err := eng.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			env, err := encodeCheckpoint(sp, state)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ResumeModel(sp, env, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Text != want.Text {
				t.Errorf("resumed text differs:\n--- uninterrupted ---\n%s--- resumed ---\n%s", want.Text, got.Text)
			}
			if got.Trace == nil {
				t.Fatal("checkpoint carried a trace; the resumed run must keep recording")
			}
			if !tracesEqual(got.Trace, want.Trace) {
				t.Error("resumed trace differs from uninterrupted trace")
			}
		})
	}
}

func TestLabSweepCheckpointResumeAcrossWorkers(t *testing.T) {
	// Lab sweep: interrupt after one completed wave, resume at both ends
	// of the parallelism range. Worker count must never reach the bytes
	// (the determinism contract), interrupted or not.
	src := `{"name":"x","workload":"fib24","storage":{"c":"10u"},
		"source":{"name":"dc"},"duration":0.002,
		"sweep":[{"param":"c","values":["10u","22u","47u"]}]}`
	sp := mustParse(t, src)
	want, err := RunModel(sp, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	m, err := LookupModel(sp.ModelName())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := m.Engine(sp, RunOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(); err != nil { // one wave of one case
		t.Fatal(err)
	}
	if e := eng.(*labSweepEngine); e.next != 1 || len(e.cases) != 3 {
		t.Fatalf("after one single-worker wave: %d of %d cases done, want 1 of 3", e.next, len(e.cases))
	}
	state, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	env, err := encodeCheckpoint(sp, state)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		got, err := ResumeModel(sp, env, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Text != want.Text {
			t.Errorf("workers=%d: resumed text differs:\n--- uninterrupted ---\n%s--- resumed ---\n%s",
				workers, want.Text, got.Text)
		}
		if len(got.Cases) != len(want.Cases) {
			t.Fatalf("workers=%d: %d cases, want %d", workers, len(got.Cases), len(want.Cases))
		}
	}
}

func TestCheckpointEnvelopeRejectsMismatches(t *testing.T) {
	sp := mustParse(t, ckptSpecs["eneutral"])
	env := interruptRun(t, sp, RunOptions{})

	// A different spec (different hash) must be rejected.
	other := mustParse(t, `{"name":"y","model":"eneutral","source":{"name":"const-power","params":{"p":"60m"}},"duration":30000}`)
	if _, err := ResumeModel(other, env, RunOptions{}); err == nil {
		t.Error("resume accepted a checkpoint from a different spec")
	}
	// A different model must be rejected before hashing even matters.
	tb := mustParse(t, ckptSpecs["taskburst"])
	if _, err := ResumeModel(tb, env, RunOptions{}); err == nil {
		t.Error("resume accepted a checkpoint from a different model")
	}
	// Garbage must be rejected.
	if _, err := ResumeModel(sp, []byte("not json"), RunOptions{}); err == nil {
		t.Error("resume accepted a non-envelope blob")
	}
}

func TestAnalyticCheckpointBytesPinned(t *testing.T) {
	// The analytic engines' checkpoint layout is a persisted format:
	// .ckpt files written by an earlier build must resume on a later
	// one. Pin the model-private bytes after one Step, with the trace on
	// and off, so a layout change cannot slip in unnoticed.
	want := map[string]string{
		"eneutral":        "713ae2a01637fcf4a53d0d17a3bd1699ebe019a7f4dd617e2343f1b13eafebb6",
		"eneutral/trace":  "8781739cbb02382df0e829f01be66da76c82a280d424f01e05962bfbfc3d6a1f",
		"taskburst":       "52c4cf2c2cb1d88bc6879242258b968f1e9d05371258926340f449a412e30191",
		"taskburst/trace": "e9dde2ba59018bb57dc9d332d1110c989c8d1ccb36b7f45cc783059f8cf5a41b",
		"mpsoc":           "4ab2b8275347c56482f2f1d437a21980863685aeb27dd84507d6c708fa2db4be",
		"mpsoc/trace":     "d5fcc5af68c7349fed53de48396a055f66b07b3308f8d1bcabf95e807d6e2d80",
		// The PV pins were taken before the harvest table existed.
		"eneutral-pv":        "44bb754e32089d7a835d65a111c046cd9c41281da9f3cc7cda234ac1192cada4",
		"eneutral-pv/trace":  "71cf54379517032d78f68cbb7ce4b9001fa3ec495223269001b2cfc80d45efd6",
		"taskburst-pv":       "6151deb923b174979665494b6b856354d42dcffa17f1f8aaf620b3052fe0f0e8",
		"taskburst-pv/trace": "32ddb8f969a01de1de175864a6752ad68cce0331f7f5ee5e8a7a436d8c627ee5",
	}
	for name, src := range ckptSpecs {
		for _, traced := range []bool{false, true} {
			key := name
			if traced {
				key += "/trace"
			}
			t.Run(key, func(t *testing.T) {
				sp := mustParse(t, src)
				m, err := LookupModel(sp.ModelName())
				if err != nil {
					t.Fatal(err)
				}
				eng, err := m.Engine(sp, RunOptions{Trace: traced}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
				state, err := eng.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(state)); got != want[key] {
					t.Errorf("checkpoint sha256 = %s, want %s", got, want[key])
				}
			})
		}
	}
}

// ckptSweepSpecs are three-case sweeps over the ckptSpecs runs: every
// case needs more than one analyticChunk, so an interruption can land
// inside a case as well as between cases.
var ckptSweepSpecs = map[string]string{
	"eneutral": `{"name":"x","model":"eneutral","source":{"name":"const-power","params":{"p":"50m"}},"duration":30000,
		"sweep":[{"param":"model.batteryj","values":[100,200,400]}]}`,
	"taskburst": `{"name":"x","model":"taskburst","storage":{"c":"6m"},"source":{"name":"const-power","params":{"p":"2m"}},"duration":2,
		"sweep":[{"param":"model.taskenergy","values":["1m","2m","3m"]}]}`,
	"mpsoc": `{"name":"x","model":"mpsoc","source":{"name":"const-power","params":{"p":2}},"duration":30000,"dt":1,
		"sweep":[{"param":"model.scale","values":[0.5,1,2]}]}`,
}

func TestAnalyticSweepCheckpointResumeIdentical(t *testing.T) {
	for name, src := range ckptSweepSpecs {
		t.Run(name, func(t *testing.T) {
			sp := mustParse(t, src)
			want, err := RunModel(sp, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Cases) != 3 {
				t.Fatalf("%d cases, want 3", len(want.Cases))
			}
			resume := func(t *testing.T, env []byte) {
				t.Helper()
				got, err := ResumeModel(sp, env, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if got.Text != want.Text {
					t.Errorf("resumed text differs:\n--- uninterrupted ---\n%s--- resumed ---\n%s", want.Text, got.Text)
				}
				if !reflect.DeepEqual(got.Cases, want.Cases) {
					t.Errorf("resumed cases differ:\n got %+v\nwant %+v", got.Cases, want.Cases)
				}
				if got.SimSeconds != want.SimSeconds {
					t.Errorf("resumed SimSeconds = %g, want %g", got.SimSeconds, want.SimSeconds)
				}
			}

			t.Run("before-first-case", func(t *testing.T) {
				resume(t, interruptRun(t, sp, RunOptions{}))
			})
			t.Run("after-first-case", func(t *testing.T) {
				ckpt := make(chan struct{})
				_, err := RunModel(sp, RunOptions{
					Checkpoint: ckpt,
					Progress: func(done, _ int) {
						if done == 1 {
							close(ckpt)
						}
					},
				})
				var ce *CheckpointError
				if !errors.As(err, &ce) {
					t.Fatalf("got %v, want *CheckpointError", err)
				}
				resume(t, ce.State)
			})
			t.Run("after-one-step", func(t *testing.T) {
				m, err := LookupModel(sp.ModelName())
				if err != nil {
					t.Fatal(err)
				}
				eng, err := m.Engine(sp, RunOptions{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
				state, err := eng.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				env, err := encodeCheckpoint(sp, state)
				if err != nil {
					t.Fatal(err)
				}
				resume(t, env)
			})
		})
	}
}

func TestAnalyticSweepCancel(t *testing.T) {
	for name, src := range ckptSweepSpecs {
		t.Run(name, func(t *testing.T) {
			sp := mustParse(t, src)
			cancel := make(chan struct{})
			_, err := RunModel(sp, RunOptions{
				Cancel: cancel,
				Progress: func(done, _ int) {
					if done == 1 {
						close(cancel)
					}
				},
			})
			if !errors.Is(err, sweep.ErrCanceled) {
				t.Fatalf("got %v, want sweep.ErrCanceled", err)
			}
		})
	}
}

func TestAnalyticSweepCarriesNoTrace(t *testing.T) {
	for name, src := range ckptSweepSpecs {
		t.Run(name, func(t *testing.T) {
			rep, err := RunModel(mustParse(t, src), RunOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Trace != nil {
				t.Error("analytic sweep returned a trace")
			}
		})
	}
}
