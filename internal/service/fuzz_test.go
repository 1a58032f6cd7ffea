package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
