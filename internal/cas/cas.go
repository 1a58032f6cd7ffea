// Package cas is a disk-backed content-addressed blob store — the
// persistence tier behind the service's in-memory result cache. Keys are
// opaque strings (the service uses canonical spec hash + engine
// version); values are byte blobs (encoded reports).
//
// The store survives restarts: Open rebuilds the index by scanning the
// directory, so a daemon rebooted on the same -cache-dir serves prior
// results without recomputing. Durability and integrity rules:
//
//   - Writes are atomic: blobs land via write-temp-then-rename, so a
//     crash mid-write leaves at most a stray .tmp file (removed on the
//     next Open), never a half-visible blob.
//   - Every blob stores a SHA-256 of its payload. Reads verify it; a
//     corrupt or truncated blob is treated as a miss and deleted, never
//     served.
//   - Residency is bounded by a byte budget with LRU eviction. An entry
//     with an in-flight read is never evicted; eviction skips it and
//     moves on to the next-least-recent entry.
package cas

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Options tunes a Store.
type Options struct {
	// BudgetBytes bounds the total on-disk blob bytes; least-recently
	// used entries are evicted past it. ≤0 means unbounded.
	BudgetBytes int64

	// WriteFault, if non-nil, is consulted before every blob write; a
	// non-nil return aborts the Put with that error. It is the
	// fault-injection seam the test harness uses to simulate disk-full
	// and I/O errors without touching the filesystem.
	WriteFault func() error
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Entries     int   // resident blobs
	Bytes       int64 // total on-disk blob bytes
	Hits        int64 // Gets served
	Misses      int64 // Gets that found nothing servable
	Evictions   int64 // blobs evicted by the byte budget
	Corrupt     int64 // blobs dropped for checksum/framing failures
	WriteErrors int64 // Puts that failed (injected faults included)
}

// header is the first line of every blob file: the key it stores and
// the payload's length and SHA-256, so reads are self-verifying and
// Open can rebuild the index without hashing payloads.
type header struct {
	Key string `json:"key"`
	Len int64  `json:"len"`
	Sum string `json:"sum"` // hex SHA-256 of the payload
}

// entry is one resident blob's index record. All fields are guarded by
// Store.mu.
type entry struct {
	key  string
	path string
	size int64 // full file size (header + payload)
	refs int   // in-flight reads; >0 blocks eviction
	dead bool  // already unlinked from the index
	elem *list.Element
}

// Store is the disk-backed CAS. Safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used
	bytes   int64

	hits, misses, evictions, corrupt, writeErrors int64
}

// Open creates or reopens the store rooted at dir, rebuilding the index
// from the blobs on disk (ordered oldest-first by modification time, so
// LRU order approximately survives restarts). Stray temp files from an
// interrupted write are removed. Blobs whose header is unreadable are
// dropped as corrupt.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, fmt.Errorf("cas: scanning %s: %w", dir, err)
	}
	type found struct {
		e     *entry
		mtime int64
	}
	var scan []found
	for _, path := range names {
		fi, err := os.Stat(path)
		if err != nil || fi.IsDir() {
			continue
		}
		if strings.HasSuffix(path, ".tmp") {
			os.Remove(path) // interrupted write; the rename never happened
			continue
		}
		if !strings.HasSuffix(path, ".blob") {
			continue
		}
		hdr, err := readHeader(path)
		if err != nil {
			s.corrupt++
			os.Remove(path)
			continue
		}
		scan = append(scan, found{
			e:     &entry{key: hdr.Key, path: path, size: fi.Size()},
			mtime: fi.ModTime().UnixNano(),
		})
	}
	sort.Slice(scan, func(i, j int) bool { return scan[i].mtime < scan[j].mtime })
	for _, f := range scan {
		if old, ok := s.entries[f.e.key]; ok {
			s.removeLocked(old) // duplicate key; keep the newer file
		}
		f.e.elem = s.lru.PushFront(f.e)
		s.entries[f.e.key] = f.e
		s.bytes += f.e.size
	}
	return s, nil
}

// readHeader parses a blob file's first line.
func readHeader(path string) (header, error) {
	f, err := os.Open(path)
	if err != nil {
		return header{}, err
	}
	defer f.Close()
	return parseHeaderFrom(f)
}

// BlobPath returns the on-disk path a key's blob occupies (whether or
// not it exists) — exposed for tests and operational tooling that need
// to inspect or corrupt a blob directly.
func (s *Store) BlobPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".blob")
}

// Get returns the payload stored under key. A missing, corrupt, or
// truncated blob is a miss; corrupt blobs are dropped so the next Put
// rewrites them cleanly. The entry cannot be evicted while the read is
// in flight.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	e.refs++
	s.lru.MoveToFront(e.elem)
	s.mu.Unlock()

	payload, err := readBlob(e.path, key)

	s.mu.Lock()
	defer s.mu.Unlock()
	e.refs--
	if err != nil {
		s.misses++
		s.dropCorruptLocked(e)
		return nil, false
	}
	s.hits++
	return payload, true
}

// readBlob reads and fully verifies one blob file's payload.
func readBlob(path, wantKey string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr, err := parseHeaderFrom(f)
	if err != nil {
		return nil, err
	}
	if hdr.Key != wantKey {
		return nil, fmt.Errorf("cas: blob stores key %q, want %q", hdr.Key, wantKey)
	}
	payload, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if n := int64(len(payload)); n != hdr.Len {
		return nil, fmt.Errorf("cas: blob payload is %d bytes, header says %d", n, hdr.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != hdr.Sum {
		return nil, errors.New("cas: blob checksum mismatch")
	}
	return payload, nil
}

// parseHeaderFrom reads the header line, leaving f positioned at the
// payload's first byte.
func parseHeaderFrom(f *os.File) (header, error) {
	br := bufio.NewReaderSize(f, 4096)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return header{}, err
	}
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return header{}, err
	}
	if h.Key == "" || h.Len < 0 {
		return header{}, errors.New("cas: malformed header")
	}
	// Reposition past the header: bufio read ahead into the payload.
	if _, err := f.Seek(int64(len(line)), io.SeekStart); err != nil {
		return header{}, err
	}
	return h, nil
}

// Put stores payload under key, replacing any prior blob, then evicts
// least-recently-used entries until the byte budget holds (entries with
// in-flight reads, and the entry just written, are never evicted).
// The write is atomic: temp file, fsync, rename.
func (s *Store) Put(key string, payload []byte) error {
	if s.opts.WriteFault != nil {
		if err := s.opts.WriteFault(); err != nil {
			s.mu.Lock()
			s.writeErrors++
			s.mu.Unlock()
			return fmt.Errorf("cas: writing %q: %w", key, err)
		}
	}
	sum := sha256.Sum256(payload)
	hdr, err := json.Marshal(header{Key: key, Len: int64(len(payload)), Sum: hex.EncodeToString(sum[:])})
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	size, err := s.writeAtomic(s.BlobPath(key), append(append(hdr, '\n'), payload...))
	if err != nil {
		s.mu.Lock()
		s.writeErrors++
		s.mu.Unlock()
		return fmt.Errorf("cas: writing %q: %w", key, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		// The rename already replaced the file on disk; drop only the
		// stale index record. Concurrent readers of the old blob keep
		// their file descriptor and finish undisturbed.
		s.removeLocked(old)
	}
	e := &entry{key: key, path: s.BlobPath(key), size: size}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.bytes += size
	s.evictLocked(e)
	return nil
}

// writeAtomic lands data at path via temp-then-rename and returns the
// byte count written.
func (s *Store) writeAtomic(path string, data []byte) (int64, error) {
	f, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return int64(len(data)), nil
}

// evictLocked drops least-recently-used entries until the budget holds,
// sparing entries with in-flight reads and the just-written entry.
// Callers hold s.mu.
func (s *Store) evictLocked(keep *entry) {
	if s.opts.BudgetBytes <= 0 {
		return
	}
	for el := s.lru.Back(); el != nil && s.bytes > s.opts.BudgetBytes; {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e != keep && e.refs == 0 {
			s.removeLocked(e)
			os.Remove(e.path)
			s.evictions++
		}
		el = prev
	}
}

// dropCorruptLocked counts and unlinks a blob that failed verification.
// The file is removed only if the entry is still the key's current
// record — a concurrent Put may already have replaced the path with a
// fresh blob that must survive. Callers hold s.mu.
func (s *Store) dropCorruptLocked(e *entry) {
	s.corrupt++
	if e.dead {
		return
	}
	if s.entries[e.key] == e {
		os.Remove(e.path)
	}
	s.removeLocked(e)
}

// removeLocked unlinks e from the index (idempotent); file removal is
// the caller's decision. Callers hold s.mu.
func (s *Store) removeLocked(e *entry) {
	if e.dead {
		return
	}
	e.dead = true
	s.bytes -= e.size
	s.lru.Remove(e.elem)
	if s.entries[e.key] == e {
		delete(s.entries, e.key)
	}
}

// Contains reports residency without bumping recency.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Len returns the number of resident blobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:     len(s.entries),
		Bytes:       s.bytes,
		Hits:        s.hits,
		Misses:      s.misses,
		Evictions:   s.evictions,
		Corrupt:     s.corrupt,
		WriteErrors: s.writeErrors,
	}
}
