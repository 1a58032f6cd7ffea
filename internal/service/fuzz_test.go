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

// FuzzBatchBody drives POST /v1/batches with arbitrary bodies. The
// server's workers are never started and the request context is over
// before the handler runs, so every accepted spec is answered as soon
// as it is queued and no simulation runs. The handler must never panic
// or answer 5xx; a 200 stream must carry one line per spec, each under
// its own index; and an accepted spec's hash must be its content
// address.
func FuzzBatchBody(f *testing.F) {
	// The body TestBatchEndpointStreamsCompletions posts, and variants.
	f.Add(fmt.Sprintf(`{"specs":[%s,{"this is": "not a scenario"},%s]}`,
		tinySpec("batch-a"), tinySweepSpec("batch-b")))
	f.Add(fmt.Sprintf(`{"specs":[%s,%s]}`, tinySpec("batch-dup"), tinySpec("batch-dup")))
	f.Add(`{"specs":[]}`)
	f.Add(`{"specs":[null, 1, "x", []]}`)
	f.Add(`{"specs":`)

	f.Fuzz(func(t *testing.T, body string) {
		s := New(Config{})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/batches", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		// Release the single-flight followers a duplicated spec left
		// waiting on its queued leader.
		for _, js := range s.Jobs() {
			s.Cancel(js.ID)
		}
		s.Drain()

		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var batch batchRequest
		if err := json.Unmarshal([]byte(body), &batch); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
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
	})
}
