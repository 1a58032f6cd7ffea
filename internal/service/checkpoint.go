package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// CheckpointRecord is one suspended job persisted for resume: the cache
// key it was running under, the canonical spec JSON (resubmittable
// as-is), and the engine-state envelope scenario.ResumeModel consumes.
type CheckpointRecord struct {
	Key   string          `json:"key"`
	Spec  json.RawMessage `json:"spec"`
	State json.RawMessage `json:"state"`
}

// CheckpointStore persists suspended jobs across daemon restarts: one
// JSON record per cache key, written atomically (temp file + rename)
// into its own directory. The daemon conventionally nests it under the
// disk cache directory ("<cache-dir>/checkpoints"); the CAS scan skips
// subdirectories and non-blob files, so the two stores coexist.
type CheckpointStore struct {
	mu  sync.Mutex
	dir string
}

// OpenCheckpointStore creates (if needed) and opens the directory.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: opening checkpoint store: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
}

// ckptExt marks the store's files; anything else in the directory is
// ignored.
const ckptExt = ".ckpt"

// path derives the record filename: keys carry characters filesystems
// reject ("|" from CacheKey), so the name is the key's digest.
func (s *CheckpointStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:16])+ckptExt)
}

// Put persists (or replaces) the record for key.
//
//lint:allow mutexio the store mutex exists to serialise this directory, not the server
func (s *CheckpointStore) Put(key string, spec, state []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(CheckpointRecord{Key: key, Spec: spec, State: state})
	if err != nil {
		return fmt.Errorf("service: encoding checkpoint: %w", err)
	}
	path := s.path(key)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: writing checkpoint: %w", err)
	}
	return nil
}

// Get returns the record for key, if present and intact.
//
//lint:allow mutexio the store mutex exists to serialise this directory, not the server
func (s *CheckpointStore) Get(key string) (CheckpointRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return CheckpointRecord{}, false
	}
	var rec CheckpointRecord
	if err := json.Unmarshal(data, &rec); err != nil || rec.Key != key {
		return CheckpointRecord{}, false
	}
	return rec, true
}

// Delete removes the record for key, if present. A nil store holds
// nothing, so deleting from it does nothing.
//
//lint:allow mutexio the store mutex exists to serialise this directory, not the server
func (s *CheckpointStore) Delete(key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	os.Remove(s.path(key))
}

// List returns every intact record, ordered by filename for
// deterministic resume order. Corrupt files are skipped, not deleted —
// a transient read error must not discard a resumable job.
//
//lint:allow mutexio the store mutex exists to serialise this directory, not the server
func (s *CheckpointStore) List() []CheckpointRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ckptExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var out []CheckpointRecord
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			continue
		}
		var rec CheckpointRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.Key == "" || len(rec.Spec) == 0 {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// Len counts the resident records.
func (s *CheckpointStore) Len() int { return len(s.List()) }
