package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzParseSpec drives the scenario JSON parser with hostile input,
// pinning three properties:
//
//  1. Parse never panics — it returns a spec or an error, whatever the
//     bytes (the daemon feeds it untrusted request bodies).
//  2. Spec.Hash / Spec.Canonical never panic, even on structurally
//     decoded but semantically invalid specs.
//  3. Canonicalisation round-trips: for any spec Parse accepts, the
//     canonical encoding re-parses successfully, canonicalises to the
//     same bytes (idempotence), and keeps the same content hash — the
//     property the service's content-addressed result cache rests on.
func FuzzParseSpec(f *testing.F) {
	// Seed with every curated spec plus targeted shapes: SI strings,
	// sweeps (numeric and name axes), governor blocks, and junk.
	paths, _ := filepath.Glob("../../examples/scenarios/*.json")
	for _, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"name":"x","workload":"fft64","storage":{"c":"10u"},"source":{"name":"dc"},"duration":1}`))
	f.Add([]byte(`{"name":"s","workload":"crc256","storage":{"c":1e-5},"source":{"name":"square","params":{"ontime":"4m"}},"runtime":{"name":"hibernus"},"duration":"500m","sweep":[{"param":"c","values":["4.7u",1e-5]},{"param":"runtime","names":["hibernus","quickrecall"]}]}`))
	f.Add([]byte(`{"name":"p","workload":"sense64","storage":{"c":"10u","leakr":"50k"},"source":{"name":"square"},"runtime":{"name":"hibernus-periph","params":{"margin":1.2}},"duration":1}`))
	f.Add([]byte(`{"name":"ps","workload":"sieve3000","storage":{"c":"10u"},"source":{"name":"square"},"duration":1,"sweep":[{"param":"workload","names":["sieve3000","sense64"]},{"param":"runtime","names":["hibernus","hibernus-periph"]}]}`))
	f.Add([]byte(`{"name":"g","workload":"fft64","storage":{"c":"330u"},"source":{"name":"wind"},"governor":{"policy":"hillclimb"},"duration":1}`))
	f.Add([]byte(`{"name":"mp","model":"mpsoc","source":{"name":"const-power"},"params":{"scale":"2"},"duration":10,"dt":1}`))
	f.Add([]byte(`{"name":"tb","model":"taskburst","storage":{"c":"6m"},"source":{"name":"pv"},"params":{"taskenergy":"1m"},"duration":5,"sweep":[{"param":"model.eta","values":[0.5,0.7]}]}`))
	f.Add([]byte(`{"name":"en","model":"eneutral","source":{"name":"pv"},"duration":100}`))
	f.Add([]byte(`{"name":"bad","model":"fpga","duration":1}`))
	f.Add([]byte(`{"name":"","workload":"","storage":{"c":-1},"source":{"name":"nope"},"duration":-3}`))
	f.Add([]byte(`{"unknown_field":true}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 2 on the loose path: a structurally decodable spec
		// must hash without panicking even if validation would reject it.
		var loose Spec
		if err := json.Unmarshal(data, &loose); err == nil {
			_, _ = loose.Hash()
		}

		sp, err := Parse(data)
		if err != nil {
			return // rejected input is fine; not panicking is the property
		}

		canon, err := sp.Canonical()
		if err != nil {
			t.Fatalf("accepted spec failed to canonicalise: %v", err)
		}
		hash, err := sp.Hash()
		if err != nil {
			t.Fatalf("accepted spec failed to hash: %v", err)
		}

		sp2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical encoding failed to re-parse: %v\ncanonical: %s", err, canon)
		}
		canon2, err := sp2.Canonical()
		if err != nil {
			t.Fatalf("re-parsed spec failed to canonicalise: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonicalisation not idempotent:\nfirst:  %s\nsecond: %s", canon, canon2)
		}
		hash2, err := sp2.Hash()
		if err != nil || hash2 != hash {
			t.Fatalf("hash changed across canonical round-trip: %s -> %s (err %v)", hash, hash2, err)
		}
	})
}

// resumeSpecs are tiny specs, one per engine: a lab single run, a lab
// sweep, each analytic model's single run and an analytic sweep.
var resumeSpecs = []string{
	`{"name":"x","workload":"fib24","storage":{"c":"10u"},"source":{"name":"dc"},"duration":0.002}`,
	`{"name":"x","workload":"fib24","storage":{"c":"10u"},"source":{"name":"dc"},"duration":0.002,
		"sweep":[{"param":"c","values":["10u","22u"]}]}`,
	`{"name":"x","model":"eneutral","source":{"name":"const-power","params":{"p":"50m"}},"duration":100}`,
	`{"name":"x","model":"taskburst","storage":{"c":"6m"},"source":{"name":"const-power","params":{"p":"2m"}},"duration":0.1}`,
	`{"name":"x","model":"mpsoc","source":{"name":"const-power","params":{"p":2}},"duration":100,"dt":1}`,
	`{"name":"x","model":"eneutral","source":{"name":"const-power","params":{"p":"50m"}},"duration":100,
		"sweep":[{"param":"model.batteryj","values":[100,200]}]}`,
}

// FuzzResumeModel feeds arbitrary checkpoint envelopes to ResumeModel
// against a tiny spec of every engine, pinning three properties:
//
//  1. ResumeModel never panics, whatever the bytes (the daemon reads
//     checkpoints back from disk).
//  2. Allocation is bounded by the input: a resume allocates no more
//     than a fresh run of the spec plus a multiple of the blob's size.
//  3. An accepted checkpoint resumes to the fresh run's report text
//     exactly; anything else is an error.
func FuzzResumeModel(f *testing.F) {
	specs := make([]*Spec, len(resumeSpecs))
	want := make([]string, len(resumeSpecs))
	freshAlloc := make([]uint64, len(resumeSpecs))
	for i, src := range resumeSpecs {
		sp, err := Parse([]byte(src))
		if err != nil {
			f.Fatal(err)
		}
		rep, err := RunModel(sp, RunOptions{Workers: 1})
		if err != nil {
			f.Fatal(err)
		}
		specs[i], want[i] = sp, rep.Text
		freshAlloc[i] = allocated(func() { _, _ = RunModel(sp, RunOptions{Workers: 1}) })

		// Seeds, as checkpoint_test.go takes them: an interruption
		// before the first Step, and the state after one Step.
		ckpt := make(chan struct{})
		close(ckpt)
		var ce *CheckpointError
		if _, err := RunModel(sp, RunOptions{Workers: 1, Checkpoint: ckpt}); !errors.As(err, &ce) {
			f.Fatalf("%s: got %v, want *CheckpointError", src, err)
		}
		f.Add(uint8(i), ce.State)
		m, err := LookupModel(sp.ModelName())
		if err != nil {
			f.Fatal(err)
		}
		eng, err := newEngine(m, sp, RunOptions{Workers: 1}, nil)
		if err != nil {
			f.Fatal(err)
		}
		if err := eng.Step(); err != nil {
			f.Fatal(err)
		}
		state, err := eng.Checkpoint()
		if err != nil {
			f.Fatal(err)
		}
		env, err := encodeCheckpoint(sp, mustHash(f, sp), state)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), env)
	}
	f.Add(uint8(0), []byte(`{"v":1,"model":"lab","hash":"","data":"e30="}`))
	f.Add(uint8(2), []byte(`{"v":3,"model":"eneutral","data":"eyJzaW0iOnt9fQ==","sum":""}`))
	f.Add(uint8(1), []byte(`not json`))

	f.Fuzz(func(t *testing.T, which uint8, blob []byte) {
		i := int(which) % len(specs)
		var rep *ModelReport
		var err error
		n := allocated(func() { rep, err = ResumeModel(specs[i], blob, RunOptions{Workers: 1}) })
		if limit := 2*freshAlloc[i] + 64*uint64(len(blob)) + 1<<20; n > limit {
			t.Errorf("resume allocated %d bytes for a %d-byte checkpoint (limit %d)", n, len(blob), limit)
		}
		if err != nil {
			return
		}
		if rep.Text != want[i] {
			t.Fatalf("accepted checkpoint resumed to another report:\n--- fresh ---\n%s--- resumed ---\n%s", want[i], rep.Text)
		}
	})
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
