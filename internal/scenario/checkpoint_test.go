package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

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
// several Steps (> stepChunk integration steps), making a mid-run
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

// mustHash returns the spec's content address, the hash the driver
// binds a checkpoint envelope to.
func mustHash(tb testing.TB, sp *Spec) string {
	tb.Helper()
	h, err := sp.Hash()
	if err != nil {
		tb.Fatal(err)
	}
	return h
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
			eng, err := newEngine(m, sp, RunOptions{Trace: true}, nil)
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
			env, err := encodeCheckpoint(sp, mustHash(t, sp), state)
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
	// Damaged state must be rejected, not resumed to another report.
	var ce checkpointEnvelope
	if err := json.Unmarshal(env, &ce); err != nil {
		t.Fatal(err)
	}
	ce.Data = bytes.Replace(ce.Data, []byte(`"T":0`), []byte(`"T":9`), 1)
	damaged, err := json.Marshal(ce)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(damaged, env) {
		t.Fatal("the damage did not change the envelope")
	}
	if _, err := ResumeModel(sp, damaged, RunOptions{}); err == nil || !strings.Contains(err.Error(), "damaged") {
		t.Errorf("resume of a damaged checkpoint: got %v, want a damaged-state error", err)
	}
}

func TestCheckpointRejectsVersion1(t *testing.T) {
	// Version 1 envelopes carried the eneutral and mpsoc results' dead
	// "Aborted" key and no checksum; version 2 sweep checkpoints had a
	// lab layout of their own and each case's lab result. Both are
	// rejected, never guessed at.
	sp := mustParse(t, ckptSpecs["eneutral"])
	var ce checkpointEnvelope
	if err := json.Unmarshal(interruptRun(t, sp, RunOptions{}), &ce); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2} {
		ce.V = v
		old, err := json.Marshal(ce)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ResumeModel(sp, old, RunOptions{})
		if want := fmt.Sprintf("checkpoint version %d (want 3)", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("resume of a v%d envelope: got %v, want a version error", v, err)
		}
	}
}

func TestLabSingleCheckpointIsRestartMarker(t *testing.T) {
	// A lab single run steps stepChunk steps at a time like every other
	// run, so a long one is still running after one Step. Its MCU state
	// is not serialised: it checkpoints as an empty restart marker.
	m, err := LookupModel("lab")
	if err != nil {
		t.Fatal(err)
	}
	long := mustParse(t, `{"name":"x","workload":"fib24","storage":{"c":"10u"},"source":{"name":"dc"},"duration":600}`)
	eng, err := newEngine(m, long, RunOptions{Trace: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if eng.Done() {
		t.Fatal("a 600 s lab run finished in one Step")
	}
	state, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != "{}" {
		t.Errorf("lab checkpoint = %s, want the empty restart marker", state)
	}

	// A run resumed from its marker starts over, byte-identical in text
	// and trace.
	short := mustParse(t, `{"name":"x","workload":"fib24","storage":{"c":"10u"},"source":{"name":"square"},"runtime":{"name":"hibernus"},"duration":0.2}`)
	want, err := RunModel(short, RunOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if eng, err = newEngine(m, short, RunOptions{Trace: true}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if eng.Done() {
		t.Fatal("spec completed in one step — grow it so the checkpoint is mid-run")
	}
	if state, err = eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	env, err := encodeCheckpoint(short, mustHash(t, short), state)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ResumeModel(short, env, RunOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text {
		t.Errorf("resumed text differs:\n--- uninterrupted ---\n%s--- resumed ---\n%s", want.Text, got.Text)
	}
	if !tracesEqual(got.Trace, want.Trace) {
		t.Error("resumed trace differs from uninterrupted trace")
	}
	if !reflect.DeepEqual(got.Cases, want.Cases) {
		t.Errorf("resumed cases differ:\n got %+v\nwant %+v", got.Cases, want.Cases)
	}
}

func TestLabSweepCancel(t *testing.T) {
	// The lab sweep's workers check the driver's channels between
	// chunks, so closing either one stops a wave of long cases
	// promptly; a checkpoint keeps only the completed prefix.
	src := `{"name":"x","workload":"fib24","storage":{"c":"10u"},"source":{"name":"dc"},"duration":600,
		"sweep":[{"param":"c","values":["10u","22u","47u"]}]}`
	sp := mustParse(t, src)
	interrupt := func(opts RunOptions, ch chan struct{}) error {
		timer := time.AfterFunc(20*time.Millisecond, func() { close(ch) })
		defer timer.Stop()
		start := time.Now()
		_, err := RunModel(sp, opts)
		if d := time.Since(start); d > 30*time.Second {
			t.Errorf("interrupt took %v", d)
		}
		return err
	}
	cancel := make(chan struct{})
	if err := interrupt(RunOptions{Workers: 2, Cancel: cancel}, cancel); !errors.Is(err, sweep.ErrCanceled) {
		t.Fatalf("cancel: got %v, want sweep.ErrCanceled", err)
	}
	ckpt := make(chan struct{})
	err := interrupt(RunOptions{Workers: 2, Checkpoint: ckpt}, ckpt)
	var ce *CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("checkpoint: got %v, want *CheckpointError", err)
	}
	data, err := decodeCheckpoint(sp, mustHash(t, sp), ce.State)
	if err != nil {
		t.Fatal(err)
	}
	var st sweepState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Next != 0 || len(st.Cases) != 0 {
		t.Errorf("checkpoint holds %d completed cases, want 0", st.Next)
	}
}

func TestAnalyticCheckpointBytesPinned(t *testing.T) {
	// The analytic engines' checkpoint layout is a persisted format:
	// .ckpt files written by an earlier build of the same
	// checkpointVersion must resume on a later one. Pin the
	// model-private bytes after one Step, with the trace on and off, so
	// a layout change cannot slip in without a version bump.
	want := map[string]string{
		"eneutral":           "a81b5904fd51735d6021c167c6081219b98c8497bf1cefebfcda6928950ba241",
		"eneutral/trace":     "b0922e016eb0f00c47d47631dee2460f2a109521a8f3828823755c805eb7f9d5",
		"taskburst":          "52c4cf2c2cb1d88bc6879242258b968f1e9d05371258926340f449a412e30191",
		"taskburst/trace":    "e9dde2ba59018bb57dc9d332d1110c989c8d1ccb36b7f45cc783059f8cf5a41b",
		"mpsoc":              "97c61fc413306b9c27572a323f0971ad9f95742ce1adb73d5a3a857197073988",
		"mpsoc/trace":        "3a9bce5d25dc208b502951cf3876811629141918af03ce3e1ed68522af14d245",
		"eneutral-pv":        "c7458e98f703bf1680339a203e3fad4d8e5850e3981c75f248d3dc44c822a732",
		"eneutral-pv/trace":  "c43973d59734f80af3025eadfdf808c22463c9367acbf2e56e3ca1d98b025475",
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
				eng, err := newEngine(m, sp, RunOptions{Trace: traced}, nil)
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

// ckptSweepSpecs are three-case sweeps of every model, over the
// ckptSpecs runs for the analytic ones: every case needs more than one
// stepChunk, so an interruption can land inside a case as well as
// between cases.
var ckptSweepSpecs = map[string]string{
	"lab": `{"name":"x","workload":"fib24","storage":{"c":"10u"},"source":{"name":"square"},"runtime":{"name":"hibernus"},"duration":0.2,
		"sweep":[{"param":"c","values":["10u","22u","47u"]}]}`,
	"eneutral": `{"name":"x","model":"eneutral","source":{"name":"const-power","params":{"p":"50m"}},"duration":30000,
		"sweep":[{"param":"model.batteryj","values":[100,200,400]}]}`,
	"taskburst": `{"name":"x","model":"taskburst","storage":{"c":"6m"},"source":{"name":"const-power","params":{"p":"2m"}},"duration":2,
		"sweep":[{"param":"model.taskenergy","values":["1m","2m","3m"]}]}`,
	"mpsoc": `{"name":"x","model":"mpsoc","source":{"name":"const-power","params":{"p":2}},"duration":30000,"dt":1,
		"sweep":[{"param":"model.scale","values":[0.5,1,2]}]}`,
}

func TestSweepCheckpointResumeIdentical(t *testing.T) {
	// Every model's sweep, interrupted before the first case, after it,
	// and after one engine Step, resumes at both ends of the parallelism
	// range to the uninterrupted text and per-case metrics. The
	// interrupted runs use one worker, so their waves are one case and
	// the completed prefix is non-empty.
	for name, src := range ckptSweepSpecs {
		t.Run(name, func(t *testing.T) {
			sp := mustParse(t, src)
			want, err := RunModel(sp, RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Cases) != 3 {
				t.Fatalf("%d cases, want 3", len(want.Cases))
			}
			resume := func(t *testing.T, env []byte) {
				t.Helper()
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
					for i, mc := range got.Cases {
						if w := want.Cases[i]; mc.Name != w.Name || !reflect.DeepEqual(mc.Metrics, w.Metrics) {
							t.Errorf("workers=%d: case %d = %s %v, want %s %v", workers, i, mc.Name, mc.Metrics, w.Name, w.Metrics)
						}
					}
					if got.SimSeconds != want.SimSeconds {
						t.Errorf("workers=%d: resumed SimSeconds = %g, want %g", workers, got.SimSeconds, want.SimSeconds)
					}
				}
			}

			t.Run("before-first-case", func(t *testing.T) {
				resume(t, interruptRun(t, sp, RunOptions{Workers: 1}))
			})
			t.Run("after-first-case", func(t *testing.T) {
				ckpt := make(chan struct{})
				_, err := RunModel(sp, RunOptions{
					Workers:    1,
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
				eng, err := newEngine(m, sp, RunOptions{Workers: 1}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
				if e := eng.(*sweepEngine); e.done.Next != 1 {
					t.Fatalf("after one single-worker wave: %d of 3 cases done, want 1", e.done.Next)
				}
				state, err := eng.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				env, err := encodeCheckpoint(sp, mustHash(t, sp), state)
				if err != nil {
					t.Fatal(err)
				}
				resume(t, env)
			})
		})
	}
}

func TestSweepTextAcrossWorkers(t *testing.T) {
	// Every model's sweep runs its cases in parallel waves, and prints
	// the same text and metrics at one worker and eight. The PV sweep's
	// cases record and read the shared harvest table concurrently (a
	// flicker no other test uses, so its first wave records it), which
	// -race checks.
	specs := map[string]string{
		"eneutral-pv": `{"name":"x","model":"eneutral","source":{"name":"pv","params":{"flicker":0.0331}},"duration":172800,
			"sweep":[{"param":"model.duty0","values":[0.1,0.2,0.3,0.4,0.5]}]}`,
	}
	for k, v := range ckptSweepSpecs {
		specs[k] = v
	}
	for name, src := range specs {
		t.Run(name, func(t *testing.T) {
			sp := mustParse(t, src)
			one, err := RunModel(sp, RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			eight, err := RunModel(sp, RunOptions{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if eight.Text != one.Text {
				t.Errorf("text differs:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", one.Text, eight.Text)
			}
			if !reflect.DeepEqual(eight.Cases, one.Cases) {
				t.Errorf("cases differ:\n workers=8 %+v\n workers=1 %+v", eight.Cases, one.Cases)
			}
		})
	}
}

func TestAnalyticSweepCancel(t *testing.T) {
	// One worker, so the case whose completion closes Cancel is the
	// whole wave and the driver sees Cancel before the next one.
	for name, src := range ckptSweepSpecs {
		if name == "lab" {
			continue // TestLabSweepCancel
		}
		t.Run(name, func(t *testing.T) {
			sp := mustParse(t, src)
			cancel := make(chan struct{})
			_, err := RunModel(sp, RunOptions{
				Workers: 1,
				Cancel:  cancel,
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

func TestSweepCarriesNoTrace(t *testing.T) {
	// Trace applies to single runs: no model's sweep records one.
	for name, src := range ckptSweepSpecs {
		t.Run(name, func(t *testing.T) {
			rep, err := RunModel(mustParse(t, src), RunOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Trace != nil {
				t.Error("sweep returned a trace")
			}
		})
	}
}
