package explore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseExploration drives the exploration-spec parser with hostile
// input — the daemon's POST /v1/explorations hands it untrusted bodies —
// pinning three properties:
//
//  1. Parse never panics: it returns a spec or an error, whatever the
//     bytes.
//  2. A spec Parse accepts hashes without error.
//  3. The accepted spec's JSON encoding re-parses, to a spec with the same
//     Hash — the content address the service keys exploration jobs by.
//
// The committed corpus (testdata/fuzz/FuzzParseExploration) holds junk
// and near-miss specs; the curated explorations are added here.
func FuzzParseExploration(f *testing.F) {
	paths, _ := filepath.Glob("../../examples/explorations/*.json")
	for _, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		hash, err := s.Hash()
		if err != nil {
			t.Fatalf("accepted spec failed to hash: %v", err)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec failed to encode: %v", err)
		}
		s2, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-encoded spec failed to parse: %v\nencoding: %s", err, enc)
		}
		if hash2, err := s2.Hash(); err != nil || hash2 != hash {
			t.Fatalf("hash changed across the JSON round trip: %s -> %s (err %v)\nencoding: %s", hash, hash2, err, enc)
		}
	})
}
