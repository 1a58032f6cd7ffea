package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// zeros is an endless body source, so oversized requests need no
// buffer of their own.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// Every body-reading endpoint answers a body past its bound with 413,
// whatever the body is.
func TestOversizedBodiesAre413(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, tc := range []struct {
		method, path string
		limit        int64
	}{
		{http.MethodPost, "/v1/jobs", maxSpecBytes},
		{http.MethodPost, "/v1/explorations", maxSpecBytes},
		{http.MethodPost, "/v1/batches", maxBatchBytes},
		{http.MethodPut, "/v1/cache/abc123", maxReportBytes},
	} {
		req := httptest.NewRequest(tc.method, tc.path, io.LimitReader(zeros{}, tc.limit+1))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with %d bytes: status %d, want 413", tc.method, tc.path, tc.limit+1, rec.Code)
		}
	}
}
