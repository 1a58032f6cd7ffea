package result

import (
	"bytes"
	"testing"

	"repro/internal/scenario"
)

// FuzzDecodeReport feeds arbitrary bytes to the report codec, which
// reads blobs from the disk CAS and from peers. It must never panic, and
// a blob it accepts must reach a fixed point after one re-encoding: the
// re-encoded bytes decode, and encode to themselves. (One re-encoding
// may still change the bytes: an empty metrics map or case list, for
// one, is dropped by omitempty.)
func FuzzDecodeReport(f *testing.F) {
	sweep, err := scenario.Parse([]byte(`{"name": "codec-sweep", "workload": "fib24",
		"storage": {"c": "10u"}, "source": {"name": "dc"}, "duration": 0.002,
		"sweep": [{"param": "c", "values": ["4.7u", "10u"]}]}`))
	if err != nil {
		f.Fatal(err)
	}
	analytic, err := scenario.Parse([]byte(`{"name": "codec-taskburst", "model": "taskburst",
		"storage": {"c": "6m"}, "source": {"name": "const-power", "params": {"p": "2m"}},
		"params": {"taskenergy": "6m"}, "duration": 1, "dt": "10m"}`))
	if err != nil {
		f.Fatal(err)
	}
	for _, sp := range []*scenario.Spec{codecSpec(f), sweep, analytic} {
		rep, err := scenario.RunModel(sp, scenario.RunOptions{Trace: true})
		if err != nil {
			f.Fatal(err)
		}
		blob, err := EncodeReport(rep)
		if err != nil {
			f.Fatal(err)
		}
		// Single runs carry their trace; sweeps record none.
		if _, err := DecodeReport(blob); err != nil || (rep.Trace != nil) == sp.HasSweep() {
			f.Fatalf("seed %s: decode error %v, traced %v", sp.Name, err, rep.Trace != nil)
		}
		f.Add(blob)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		once, err := EncodeReport(rep)
		if err != nil {
			t.Fatalf("accepted report does not re-encode: %v", err)
		}
		again, err := DecodeReport(once)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v\n%s", err, once)
		}
		twice, err := EncodeReport(again)
		if err != nil {
			t.Fatalf("decoded re-encoding does not encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n once %s\ntwice %s", once, twice)
		}
	})
}
