package cas

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mustPut(t *testing.T, s *Store, key string, payload []byte) {
	t.Helper()
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello, blob\nwith newlines\x00and zeros")
	mustPut(t, s, "k1", payload)
	got, ok := s.Get("k1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload back", got, ok)
	}
	if _, ok := s.Get("absent"); ok {
		t.Error("absent key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestReopenServesPriorBlobs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "persist", []byte("survives restarts"))

	// Simulate a crash-restart: a stray temp file from an interrupted
	// write must be swept, the committed blob must survive.
	if err := os.WriteFile(filepath.Join(dir, "put-crash.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("persist")
	if !ok || string(got) != "survives restarts" {
		t.Fatalf("after reopen: Get = %q, %v", got, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, "put-crash.tmp")); !os.IsNotExist(err) {
		t.Error("stray temp file survived Open")
	}
}

func TestPutReplacesExistingKey(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "k", []byte("old"))
	mustPut(t, s, "k", []byte("new value, longer"))
	got, ok := s.Get("k")
	if !ok || string(got) != "new value, longer" {
		t.Fatalf("Get after replace = %q, %v", got, ok)
	}
	if n := s.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

func TestByteBudgetEvictsLRU(t *testing.T) {
	// Each blob: ~100-byte header + 200-byte payload ≈ 300 bytes. Budget
	// of 1000 holds three comfortably, not four.
	s, err := Open(t.TempDir(), Options{BudgetBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 200)
	for _, k := range []string{"a", "b", "c"} {
		mustPut(t, s, k, payload)
	}
	// Touch "a": it becomes most recent, so "b" is now the LRU victim.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("warm read of a failed")
	}
	mustPut(t, s, "d", payload)
	if s.Contains("b") {
		t.Error("LRU victim b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !s.Contains(k) {
			t.Errorf("%s evicted, want retained", k)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes > 1000 {
		t.Errorf("stats = %+v, want 1 eviction and bytes within budget", st)
	}
}

func TestEvictionSparesInFlightRead(t *testing.T) {
	s, err := Open(t.TempDir(), Options{BudgetBytes: 700})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 200)
	mustPut(t, s, "pinned", payload)
	mustPut(t, s, "second", payload)

	// Pin the LRU entry the way Get does around its read, without
	// bumping its recency, then blow the budget.
	s.mu.Lock()
	e := s.entries["pinned"]
	e.refs++
	s.mu.Unlock()
	mustPut(t, s, "third", payload)
	if !s.Contains("pinned") {
		t.Fatal("entry with an in-flight read was evicted")
	}
	if s.Contains("second") {
		t.Error("eviction should have skipped to the next-least-recent entry")
	}
	got, err := readBlob(e.path, "pinned")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("pinned read = %q, %v", got, err)
	}
	s.mu.Lock()
	e.refs--
	s.mu.Unlock()

	// Unpinned now: the next overflow may evict it.
	mustPut(t, s, "fourth", payload)
	if s.Contains("pinned") {
		t.Error("released entry survived eviction as the LRU victim")
	}
}

func TestCorruptBlobIsMissAndDropped(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("precious bytes that must never be served corrupted")
	mustPut(t, s, "k", payload)

	// Flip payload bytes on disk directly, behind the store's back.
	path := s.BlobPath("k")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := s.Get("k"); ok {
		t.Fatalf("corrupt blob served: %q", got)
	}
	if s.Contains("k") {
		t.Error("corrupt blob still resident")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt blob file not deleted")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", st.Corrupt)
	}
	// The key is writable again and serves cleanly.
	mustPut(t, s, "k", payload)
	if got, ok := s.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Errorf("rewritten key: Get = %q, %v", got, ok)
	}
}

func TestTruncatedBlobIsMiss(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "k", bytes.Repeat([]byte("z"), 500))
	path := s.BlobPath("k")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-100); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Error("truncated blob served")
	}
	if s.Contains("k") {
		t.Error("truncated blob still resident")
	}
}

func TestCorruptBlobDroppedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "good", []byte("fine"))
	// A blob whose header line is garbage cannot even be indexed.
	if err := os.WriteFile(filepath.Join(dir, "junk.blob"), []byte("not a header"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Errorf("reopened store holds %d entries, want 1", s2.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "junk.blob")); !os.IsNotExist(err) {
		t.Error("unindexable blob not removed at Open")
	}
}

func TestWriteFaultFailsPutCleanly(t *testing.T) {
	var fault error
	s, err := Open(t.TempDir(), Options{WriteFault: func() error { return fault }})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "before", []byte("ok"))

	fault = errors.New("no space left on device")
	if err := s.Put("doomed", []byte("never lands")); err == nil {
		t.Fatal("Put under injected fault succeeded")
	}
	if s.Contains("doomed") {
		t.Error("failed Put left an index entry")
	}
	if st := s.Stats(); st.WriteErrors != 1 {
		t.Errorf("WriteErrors = %d, want 1", st.WriteErrors)
	}
	// Recovery: clearing the fault restores writes, and earlier blobs
	// were untouched.
	fault = nil
	mustPut(t, s, "after", []byte("ok again"))
	if got, ok := s.Get("before"); !ok || string(got) != "ok" {
		t.Errorf("pre-fault blob: %q, %v", got, ok)
	}
}

func TestReopenPreservesOldestFirstEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("p"), 200)
	base := time.Now().Add(-time.Hour)
	for i, k := range []string{"old", "mid", "new"} {
		mustPut(t, s, k, payload)
		// Pin distinct mtimes: same-millisecond writes would make the
		// reopen ordering arbitrary.
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.BlobPath(k), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, Options{BudgetBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s2, "extra", payload) // overflow: the oldest blob must go first
	if s2.Contains("old") {
		t.Error("oldest pre-restart blob survived the first eviction")
	}
	for _, k := range []string{"mid", "new", "extra"} {
		if !s2.Contains(k) {
			t.Errorf("%s evicted, want retained", k)
		}
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	s, err := Open(t.TempDir(), Options{BudgetBytes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%12)
				want := []byte(strings.Repeat(k, 30))
				if i%3 == 0 {
					s.Put(k, want)
				} else if got, ok := s.Get(k); ok && !bytes.Equal(got, want) {
					t.Errorf("Get(%s) returned wrong payload", k)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
