package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// FuzzBatchBody drives POST /v1/batches with arbitrary bodies, each
// twice on one server. The server's workers are never started and the
// request context is over before the handler runs, so every accepted
// spec is answered as soon as it is queued and no simulation runs. The
// handler must never panic or answer 5xx; a 200 stream must carry one
// line per spec, each under its own index; an accepted spec's hash must
// be its content address; and the second response, whose specs the
// server has parsed before, must equal the first line for line but for
// job ids. The queue holds a whole batch, so no spec's fate depends on
// which goroutine reached the queue first.
func FuzzBatchBody(f *testing.F) {
	// The body TestBatchEndpointStreamsCompletions posts, and variants.
	f.Add(fmt.Sprintf(`{"specs":[%s,{"this is": "not a scenario"},%s]}`,
		tinySpec("batch-a"), tinySweepSpec("batch-b")))
	f.Add(fmt.Sprintf(`{"specs":[%s,%s]}`, tinySpec("batch-dup"), tinySpec("batch-dup")))
	f.Add(`{"specs":[]}`)
	f.Add(`{"specs":[null, 1, "x", []]}`)
	f.Add(`{"specs":`)

	f.Fuzz(func(t *testing.T, body string) {
		s := New(Config{QueueDepth: maxBatchSpecs})
		defer s.Drain()
		first := postFuzzBatch(t, s, body)
		second := postFuzzBatch(t, s, body)
		if len(first) != len(second) {
			t.Fatalf("repeat of body %q: %d lines, first time %d", body, len(second), len(first))
		}
		for i := range first {
			a, b := first[i], second[i]
			a.ID, b.ID = "", ""
			if a != b {
				t.Fatalf("repeat of body %q, spec %d: line %+v, first time %+v", body, i, b, a)
			}
		}
	})
}

// postFuzzBatch posts body to s's batch endpoint under a context that is
// already over, cancels every job it left (releasing the single-flight
// followers a duplicated spec left waiting on its queued leader), checks
// the stream, and returns its lines by index; nil for a refused body.
func postFuzzBatch(t *testing.T, s *Server, body string) []batchItem {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/batches", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	for _, js := range s.Jobs() {
		s.Cancel(js.ID)
	}

	if rec.Code >= 500 {
		t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
	}
	if rec.Code != http.StatusOK {
		return nil
	}
	var batch batchRequest
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		t.Fatalf("200 for a body that does not decode: %v", err)
	}
	lines := make([]batchItem, len(batch.Specs))
	seen := make([]bool, len(batch.Specs))
	dec := json.NewDecoder(rec.Body)
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("stream line: %v", err)
		}
		var item batchItem
		var fields map[string]json.RawMessage
		if json.Unmarshal(raw, &item) != nil || json.Unmarshal(raw, &fields) != nil {
			t.Fatalf("stream line %s does not decode", raw)
		}
		if _, ok := fields["index"]; !ok || item.Index < 0 || item.Index >= len(seen) || seen[item.Index] {
			t.Fatalf("line %s: missing, out-of-range or repeated index", raw)
		}
		seen[item.Index] = true
		lines[item.Index] = item
		if item.Hash == "" {
			continue
		}
		sp, err := scenario.Parse(batch.Specs[item.Index])
		if err != nil {
			t.Fatalf("spec %d accepted with hash %s but does not parse: %v", item.Index, item.Hash, err)
		}
		if want, err := sp.Hash(); err != nil || want != item.Hash {
			t.Fatalf("spec %d: line hash %s, content address %s (%v)", item.Index, item.Hash, want, err)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("no line for spec %d", i)
		}
	}
	return lines
}

// ckptFuzzSpec is a short analytic run: a resume or a fresh run of it
// costs about a millisecond.
const ckptFuzzSpec = `{"name":"x","model":"eneutral","source":{"name":"const-power","params":{"p":"50m"}},"duration":100}`

// FuzzCheckpointStore writes arbitrary bytes as the one .ckpt file of a
// checkpoint directory and reads it back the two ways the daemon does:
// Get under the spec's cache key (a job about to run) and List (a boot
// resubmitting suspended jobs). Neither may panic, and together they
// may allocate no more than a constant factor of the file's size. A
// record Get accepts must resume, through scenario.ResumeModel, to
// exactly the spec's RunModel text, or be rejected with an error. List
// lists at most that one file, and a record it lists under the spec's
// key is the one Get served; under any other key the daemon drops it at
// boot and never resumes it.
func FuzzCheckpointStore(f *testing.F) {
	sp, err := scenario.Parse([]byte(ckptFuzzSpec))
	if err != nil {
		f.Fatal(err)
	}
	hash, err := sp.Hash()
	if err != nil {
		f.Fatal(err)
	}
	key := CacheKey(hash)
	canon, err := sp.Canonical()
	if err != nil {
		f.Fatal(err)
	}
	opts := scenario.RunOptions{Workers: 1, Trace: true, TraceInterval: traceInterval(float64(sp.Duration))}
	fresh, err := scenario.RunModel(sp, opts)
	if err != nil {
		f.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	ckOpts := opts
	ckOpts.Checkpoint = stop
	var ce *scenario.CheckpointError
	if _, err := scenario.RunModel(sp, ckOpts); !errors.As(err, &ce) {
		f.Fatalf("checkpoint request: got %v, want *scenario.CheckpointError", err)
	}
	if rep, err := scenario.ResumeModel(sp, ce.State, opts); err != nil || rep.Text != fresh.Text {
		f.Fatalf("the seed checkpoint does not resume to the fresh report (%v)", err)
	}
	seed := func(rec CheckpointRecord) {
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(CheckpointRecord{Key: key, Spec: canon, State: ce.State})
	seed(CheckpointRecord{Key: key, Spec: []byte(ckptFuzzSpec), State: ce.State})
	seed(CheckpointRecord{Key: key, Spec: canon, State: []byte(`{"v":3,"model":"eneutral","data":"e30=","sum":""}`)})
	seed(CheckpointRecord{Key: CacheKey("stale"), Spec: canon, State: ce.State})
	seed(CheckpointRecord{Key: key, Spec: []byte(`{"name":"x"}`), State: []byte(`null`)})
	f.Add([]byte(`{"key":"","spec":null}`))
	f.Add([]byte(`not json`))
	f.Add([]byte{})

	store, err := OpenCheckpointStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(store.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		got, ok := store.Get(key)
		listed := store.List()
		metrics.Read(allocs)
		if alloc, limit := allocs[0].Value.Uint64()-before, uint64(64*len(data)+1<<20); alloc > limit {
			t.Fatalf("reading a %d-byte record allocated %d bytes (limit %d)", len(data), alloc, limit)
		}

		if ok {
			if got.Key != key {
				t.Fatalf("Get(%q) served a record keyed %q", key, got.Key)
			}
			rep, err := scenario.ResumeModel(sp, got.State, opts)
			if err == nil && rep.Text != fresh.Text {
				t.Fatalf("accepted checkpoint resumed to another report:\n--- fresh ---\n%s--- resumed ---\n%s", fresh.Text, rep.Text)
			}
		}
		if len(listed) > 1 {
			t.Fatalf("one file listed as %d records", len(listed))
		}
		for _, rec := range listed {
			if rec.Key == key && (!ok || !bytes.Equal(rec.Spec, got.Spec) || !bytes.Equal(rec.State, got.State)) {
				t.Fatalf("List serves a record under %q that Get does not", key)
			}
		}
	})
}
