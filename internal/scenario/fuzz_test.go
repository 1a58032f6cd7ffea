package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
