package lab_test

import (
	"bytes"
	"io/fs"
	"reflect"
	"testing"

	"repro/examples"
	"repro/internal/lab"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestChunkedStepMatchesRun: for every curated lab spec (a sweep's first
// case), stepwise and fast-forward, traced and untraced, a Sim stepped
// in chunks of any size ends in the Result and trace lab.Run gives, bit
// for bit. A fast-forward hop may run past a chunk's end, so the hop
// sequence never depends on the chunking.
func TestChunkedStepMatchesRun(t *testing.T) {
	paths, err := fs.Glob(examples.FS, "scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := examples.FS.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := scenario.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if sp.ModelName() != "lab" {
			continue
		}
		for _, ff := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				name := sp.Name
				if ff {
					name += "/ff"
				}
				if traced {
					name += "/trace"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					setup := func() (lab.Setup, *trace.Recorder) {
						cs := sp.Clone()
						cs.FastForward = ff
						s, err := cs.Setup()
						if cs.HasSweep() {
							s, err = cs.SetupAt(cs.Grid().Cases()[0])
						}
						if err != nil {
							t.Fatal(err)
						}
						if traced {
							s.Recorder = trace.NewRecorder()
							s.Recorder.SetInterval(scenario.DefaultTraceInterval)
						}
						return s, s.Recorder
					}
					s, wantRec := setup()
					want, err := lab.Run(s)
					if err != nil {
						t.Fatal(err)
					}
					for _, chunk := range []int{1, 7, 100, 16384} {
						s, rec := setup()
						sim, err := lab.Start(s)
						if err != nil {
							t.Fatal(err)
						}
						for !sim.Done() {
							sim.Step(chunk)
						}
						if got := sim.Result(); !reflect.DeepEqual(got, want) {
							t.Errorf("chunk %d: result differs from lab.Run:\n got %+v\nwant %+v", chunk, got, want)
						}
						if traced && !bytes.Equal(trace.EncodeRecorder(rec), trace.EncodeRecorder(wantRec)) {
							t.Errorf("chunk %d: trace differs from lab.Run's", chunk)
						}
					}
				})
			}
		}
	}
}
