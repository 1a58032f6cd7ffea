package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// fuzzKey is the key every FuzzCASBlob input is stored under.
const fuzzKey = "3f9c-spec-hash/engine-1"

// FuzzCASBlob writes arbitrary bytes as fuzzKey's blob file, then opens
// the store and reads the key back, as a daemon rebooted on a damaged
// cache directory would. Nothing may panic. Get may hit only when the
// file's first line is a JSON header whose key, len and lowercase hex
// SHA-256 all match the bytes after that line, and must then return
// exactly those bytes; anything else is a miss that leaves the key
// unindexed.
func FuzzCASBlob(f *testing.F) {
	s, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, payload := range [][]byte{
		[]byte("report bytes\nwith newlines\x00and zeros"),
		{},
	} {
		if err := s.Put(fuzzKey, payload); err != nil {
			f.Fatal(err)
		}
		blob, err := os.ReadFile(s.BlobPath(fuzzKey))
		if err != nil {
			f.Fatal(err)
		}
		nl := bytes.IndexByte(blob, '\n')
		f.Add(blob)
		f.Add(blob[:len(blob)-1])                       // truncated
		f.Add(append(bytes.Clone(blob), "trailing"...)) // payload longer than its header says
		f.Add(blob[:nl])                                // no newline
		flipped := bytes.Clone(blob)
		flipped[len(flipped)-1] ^= 0x01 // last payload byte, or the newline when empty
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile((&Store{dir: dir}).BlobPath(fuzzKey), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, valid := validBlob(raw)
		got, ok := s.Get(fuzzKey)
		switch {
		case ok && !valid:
			t.Fatalf("served an invalid blob: %q", got)
		case ok && !bytes.Equal(got, want):
			t.Fatalf("served %q, want the payload %q", got, want)
		case !ok && valid:
			t.Fatalf("missed a valid blob with payload %q", want)
		case !ok && s.Contains(fuzzKey):
			t.Fatal("a miss left the key indexed")
		}
	})
}

// validBlob is FuzzCASBlob's oracle: the payload a blob file stores
// under fuzzKey, and whether the file is valid.
func validBlob(raw []byte) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	var h header
	if json.Unmarshal(raw[:nl], &h) != nil {
		return nil, false
	}
	payload := raw[nl+1:]
	sum := sha256.Sum256(payload)
	valid := h.Key == fuzzKey && h.Len == int64(len(payload)) && h.Sum == hex.EncodeToString(sum[:])
	return payload, valid
}
