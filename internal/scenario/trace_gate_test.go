package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// Trace recording is gated once per sample instant: the lab observer
// and the analytic models' record hooks ask the first channel whether
// the instant is due before computing or appending anything. These
// tests show the gate stores exactly what plain per-channel Record
// stores, against two oracles:
//
//   - a replay oracle: the same run recorded at every step (an interval
//     below one step), replayed sample by sample through per-channel
//     Channel.Record at the real interval;
//   - sha256 pins of the encoded recorders, captured while every
//     channel was still recorded through its own gated Record.

// gateSpec loads a curated spec with its duration replaced (lab runs
// are shortened so the every-step oracle stays small) and fast-forward
// set as asked.
func gateSpec(t *testing.T, name, duration string, ff bool) *Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("../../examples/scenarios", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if duration != "" {
		m["duration"] = duration
	}
	if ff {
		m["fastforward"] = true
	}
	src, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return mustParse(t, string(src))
}

// everyStep is a trace interval below every model's step, so the
// recorder stores every observed instant.
const everyStep = 1e-12

// replayGate feeds every sample of full through per-channel Record on a
// fresh recorder gated at iv — what an observer recording each channel
// through its own gate would have stored.
func replayGate(t *testing.T, full *trace.Recorder, iv float64) *trace.Recorder {
	out := trace.NewRecorder()
	out.SetInterval(iv)
	for _, name := range seriesNames(t, full) {
		s := full.Series(name)
		ch := out.Channel(name, s.Unit)
		for i := 0; i < s.Len(); i++ {
			ch.Record(s.T(i), s.V(i))
		}
	}
	return out
}

// seriesNames lists a recorder's series in column order, read from
// its CSV header ("t,name(unit),...").
func seriesNames(t *testing.T, r *trace.Recorder) []string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(b.String(), "\n")
	cols := strings.Split(header, ",")[1:]
	for i, c := range cols {
		cols[i], _, _ = strings.Cut(c, "(")
	}
	return cols
}

func recorderSum(r *trace.Recorder) string {
	return fmt.Sprintf("%x", sha256.Sum256(trace.EncodeRecorder(r)))
}

// gateCases are the run shapes under test, with the sha256 of each
// one's encoded trace at the default interval.
var gateCases = []struct {
	spec, duration string
	ff             bool
	sum            string
}{
	{"fig7-rectified-sine-hibernus", "0.25", false,
		"52b9cbc7e2956e142caced3403ea68dbb3ac1f534d65739942c5a9464ec19ee2"},
	{"fig7-rectified-sine-hibernus", "0.25", true,
		"bd58c97c108e76c5e13d175f02dca99a974c9c5699ddb4f7b12a9802a518298c"},
	{"lab-mementos-square", "0.3", false,
		"4e4eb1bfb2844377e077c5df02d91922b2bb9e8d22f6eac70aae8f7d774ad520"},
	{"lab-mementos-square", "0.3", true,
		"90e6dc82423240b0ee07475d0f0aaf866a678bdd4878c0a2597d402ff5caa8ff"},
	{"powerneutral-wind-gust", "0.3", false,
		"b25ba4f194c87d2ecfcfb1d7db8ad69de6704118c869c0396d4981d5b00f7a49"},
	{"powerneutral-wind-gust", "0.3", true,
		"52ba9561c2435cc95d55b4ec4729f110e1106be24f185dad02e0037f52e056b4"},
	{"taskburst-wispcam", "", false,
		"fc1564701154190c9f4503a2e0323e113c9be9e0b50879486dad780f61d516af"},
	{"mpsoc-fig5-solar", "", false,
		"4b4bb86fbba4673da440235953049ec51655a330dc9c066ebbd28ae3f812626c"},
	{"eneutral-kansal-pv", "", false,
		"116a475faab987323b2dc44db19c0140e8eda3e42dc30da5186cb990e5218206"},
}

func TestTraceGateMatchesPerChannelRecord(t *testing.T) {
	for _, tc := range gateCases {
		name := fmt.Sprintf("%s/ff=%v", tc.spec, tc.ff)
		t.Run(name, func(t *testing.T) {
			sp := gateSpec(t, tc.spec, tc.duration, tc.ff)
			gated, err := RunModel(sp, RunOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			full, err := RunModel(sp, RunOptions{Trace: true, TraceInterval: everyStep})
			if err != nil {
				t.Fatal(err)
			}
			want := replayGate(t, full.Trace, DefaultTraceInterval)
			if !bytes.Equal(trace.EncodeRecorder(gated.Trace), trace.EncodeRecorder(want)) {
				first := seriesNames(t, want)[0]
				t.Errorf("gated trace differs from the per-channel replay (%d vs %d samples in %s)",
					gated.Trace.Series(first).Len(), want.Series(first).Len(), first)
			}
			if got := recorderSum(gated.Trace); got != tc.sum {
				t.Errorf("trace sha256 = %s, pinned %s", got, tc.sum)
			}
		})
	}
}

// TestTraceGateAcrossCheckpointResume covers the resumed shape: a lab
// single run resumed from its restart marker.
func TestTraceGateAcrossCheckpointResume(t *testing.T) {
	t.Run("lab-single", func(t *testing.T) {
		sp := gateSpec(t, "fig7-rectified-sine-hibernus", "0.25", false)
		env := interruptRun(t, sp, RunOptions{Trace: true})
		got, err := ResumeModel(sp, env, RunOptions{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if sum, want := recorderSum(got.Trace), gateCases[0].sum; sum != want {
			t.Errorf("resumed trace sha256 = %s, pinned %s", sum, want)
		}
	})
}
