package service

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"

	"repro/internal/result"
	"repro/internal/scenario"
)

// maxReportBytes bounds a pushed report body. Reports are text plus a
// bounded columnar trace (maxTraceSamples), so real bodies stay within a
// few MB; the limit only guards against abuse.
const maxReportBytes = 32 << 20

// handleCacheGet is the peer cache lookup: the encoded report for a
// spec hash, served from the memory tier or the disk CAS. If the key is
// currently being computed, the handler waits for that computation
// (bounded by the client's request context) instead of answering "not
// cached" — this is what makes single-flight hold across nodes: a peer
// that routed the same spec here rides our in-flight run rather than
// starting its own.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	// A peer on a different engine version computes different bytes;
	// a cross-version transfer must read as a miss, never a wrong body.
	if v := r.Header.Get("X-Engine-Version"); v != "" && v != result.EngineVersion {
		writeError(w, http.StatusNotFound, "engine version %q not served (running %q)", v, result.EngineVersion)
		return
	}
	key := CacheKey(hash)
	if e, ok := s.cache.Probe(key); ok {
		select {
		case <-e.Done:
		case <-r.Context().Done():
			writeError(w, http.StatusNotFound, "computation for %s still in flight", hash)
			return
		}
		if e.Err == nil && e.Report != nil {
			s.serveEncodedReport(w, hash, e.Report)
			return
		}
		// Aborted: fall through to the disk tier.
	}
	if s.cfg.CAS != nil {
		if data, ok := s.cfg.CAS.Get(key); ok {
			// Validate before serving: a stale-codec blob must be a miss
			// for the peer too.
			if _, err := result.DecodeReport(data); err == nil {
				writeBlob(w, hash, data)
				return
			}
		}
	}
	writeError(w, http.StatusNotFound, "spec %s not cached", hash)
}

// handleCachePut is the peer cache push: a node that computed a result
// this node owns replicates it here. The body is verified (checksum,
// codec, engine, hash match) and adopted into the memory cache and the
// disk CAS. An in-flight local computation for the same key keeps its
// leader; the push is acknowledged and dropped.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	body, ok := readBody(w, r, maxReportBytes, "pushed report")
	if !ok {
		return
	}
	if want := r.Header.Get("X-Body-Sum"); want != "" {
		sum := sha256.Sum256(body)
		if hex.EncodeToString(sum[:]) != want {
			writeError(w, http.StatusBadRequest, "pushed report failed checksum")
			return
		}
	}
	rep, err := result.DecodeReport(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "pushed report: %v", err)
		return
	}
	if rep.SpecHash != hash {
		writeError(w, http.StatusBadRequest, "pushed report is for %s, not %s", rep.SpecHash, hash)
		return
	}
	key := CacheKey(hash)
	s.cache.AdoptCompleted(key, rep)
	if s.cfg.CAS != nil {
		s.cfg.CAS.Put(key, body) // failures land in the store's stats
	}
	w.WriteHeader(http.StatusNoContent)
}

// serveEncodedReport encodes and serves a report as a peer-transfer
// body.
func (s *Server) serveEncodedReport(w http.ResponseWriter, hash string, rep *scenario.ModelReport) {
	data, err := result.EncodeReport(rep)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding report: %v", err)
		return
	}
	writeBlob(w, hash, data)
}

// writeBlob serves an encoded report with the integrity metadata the
// peer client verifies: an explicit length and a body checksum.
func writeBlob(w http.ResponseWriter, hash string, data []byte) {
	sum := sha256.Sum256(data)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("X-Spec-Hash", hash)
	w.Header().Set("X-Body-Sum", hex.EncodeToString(sum[:]))
	w.Write(data)
}
