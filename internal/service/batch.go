package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
)

// Batch intake bounds. A batch is one heavy client's sweep, not a bulk
// import channel; the queue still paces actual execution.
const (
	maxBatchBytes = 16 << 20
	maxBatchSpecs = 1024
)

// batchRequest is the POST /v1/batches body: the specs to run, each a
// complete scenario document exactly as POST /v1/jobs accepts.
type batchRequest struct {
	Specs []json.RawMessage `json:"specs"`
}

// batchItem is one NDJSON line of the batch response stream, emitted
// when the corresponding spec finishes (completion order, correlated by
// Index). Done specs carry the full report text so a sweep client makes
// exactly one round trip.
type batchItem struct {
	Index  int      `json:"index"`
	ID     string   `json:"id,omitempty"`
	Hash   string   `json:"hash,omitempty"`
	State  JobState `json:"state,omitempty"`
	Cached bool     `json:"cached,omitempty"`
	Source string   `json:"source,omitempty"`
	Error  string   `json:"error,omitempty"`
	Result string   `json:"result,omitempty"`
}

// handleBatch accepts N specs in one request and streams one NDJSON
// line per spec as it completes. Intake respects the queue bound by
// waiting (not rejecting): a full queue paces the batch. Per-spec
// failures — invalid spec, failed job — become per-line errors; the
// stream itself stays 200 once headers are out.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxBatchBytes, "batch")
	if !ok {
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no specs")
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		writeError(w, http.StatusRequestEntityTooLarge, "batch has %d specs, limit %d", len(req.Specs), maxBatchSpecs)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Batch-Size", strconv.Itoa(len(req.Specs)))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	ctx := r.Context()
	items := make(chan batchItem)
	for i, spec := range req.Specs {
		go func(i int, spec []byte) {
			items <- s.runBatchSpec(ctx, i, spec)
		}(i, spec)
	}

	enc := json.NewEncoder(w)
	for n := 0; n < len(req.Specs); n++ {
		item := <-items
		if err := enc.Encode(item); err != nil {
			// Client went away; drain remaining completions so the
			// goroutines exit (their jobs still run to completion).
			go drainItems(items, len(req.Specs)-n-1)
			return
		}
		// The handler's return sends the last line; every other line
		// goes out as its spec finishes.
		if flusher != nil && n < len(req.Specs)-1 {
			flusher.Flush()
		}
	}
}

// runBatchSpec submits one batch member (waiting out backpressure) and
// blocks until it finishes, returning its stream line.
func (s *Server) runBatchSpec(ctx context.Context, i int, spec []byte) batchItem {
	st, err := s.SubmitWait(ctx, spec)
	if err != nil {
		return batchItem{Index: i, Error: err.Error()}
	}
	fin, known, err := s.WaitJob(ctx, st.ID)
	if err != nil || !known {
		return batchItem{Index: i, ID: st.ID, Hash: st.Hash, Error: "wait interrupted"}
	}
	item := batchItem{
		Index:  i,
		ID:     fin.ID,
		Hash:   fin.Hash,
		State:  fin.State,
		Cached: fin.Cached,
		Source: fin.Source,
		Error:  fin.Error,
	}
	if fin.State == JobDone {
		if rep, _, ok := s.Result(fin.ID); ok && rep != nil {
			item.Result = rep.Text
		}
	}
	return item
}

// drainItems consumes the remaining completions of an abandoned batch.
func drainItems(items <-chan batchItem, n int) {
	for i := 0; i < n; i++ {
		<-items
	}
}
