package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/powerneutral"
	"repro/internal/programs"
	"repro/internal/registry"
	"repro/internal/result"
	"repro/internal/scenario"
	"repro/internal/source"
	"repro/internal/transient"
)

// maxSpecBytes bounds a submitted spec body.
const maxSpecBytes = 1 << 20

// Handler returns the daemon's REST surface:
//
//	POST   /v1/jobs          submit a scenario spec (JSON body)
//	GET    /v1/jobs          list jobs
//	GET    /v1/jobs/{id}     poll one job
//	DELETE /v1/jobs/{id}     cancel one job
//	GET    /v1/jobs/{id}/result   the report, byte-identical to `ehsim -scenario`
//	GET    /v1/jobs/{id}/trace    the captured trace, rendered and streamed as chunked CSV
//	POST   /v1/batches       submit N specs; per-spec completions stream back as NDJSON
//	POST   /v1/explorations  submit an exploration spec; runs as a job, probes ride the cache tiers
//	GET    /v1/cache/{hash}  peer cache lookup: the encoded report for a spec hash
//	PUT    /v1/cache/{hash}  peer cache push: adopt a report computed elsewhere
//	GET    /v1/registry      machine-readable form of `ehsim -list`
//	GET    /metrics          queue/cache/work counters, Prometheus text format
//	GET    /healthz          liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/batches", s.handleBatch)
	mux.HandleFunc("POST /v1/explorations", s.handleSubmitExploration)
	mux.HandleFunc("GET /v1/cache/{hash}", s.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache/{hash}", s.handleCachePut)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError renders a JSON error body.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfter is the Retry-After hint, in whole seconds, that comes with
// a backpressure response.
const retryAfter = "1"

// readBody reads a request body of at most limit bytes. On failure it
// writes the response itself — 413 past the limit, 400 otherwise, noun
// naming the body — and reports false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, noun string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "reading %s: %v", noun, err)
		return nil, false
	}
	return body, true
}

// writeSubmitError maps a submission error onto its response; it
// reports whether it wrote one.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxSpecBytes, "spec")
	if !ok {
		return
	}
	st, err := s.Submit(body)
	if s.writeSubmitError(w, err) {
		return
	}
	code := http.StatusAccepted
	if st.State == JobDone {
		code = http.StatusOK // cache hit: nothing left to wait for
	}
	writeJSON(w, code, st)
}

// handleSubmitExploration accepts an exploration spec and queues it as
// a job. The response is always 202: explorations are never served
// whole from cache — their probes are the cached unit — so there is
// always a run to wait for. Poll, cancel, and fetch the report through
// the job endpoints.
func (s *Server) handleSubmitExploration(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxSpecBytes, "spec")
	if !ok {
		return
	}
	st, err := s.SubmitExploration(body)
	if s.writeSubmitError(w, err) {
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// notReady maps an unfinished job's state onto a response for the
// result/trace endpoints; it reports whether it wrote one.
func (s *Server) notReady(w http.ResponseWriter, st JobStatus) bool {
	switch st.State {
	case JobDone:
		return false
	case JobFailed:
		writeError(w, http.StatusInternalServerError, "job %s failed: %s", st.ID, st.Error)
	case JobCanceled:
		writeError(w, http.StatusGone, "job %s was canceled", st.ID)
	case JobCheckpointed:
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusServiceUnavailable,
			"job %s was checkpointed for shutdown; resubmit the spec after the daemon restarts", st.ID)
	default: // queued, running
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusConflict, st)
	}
	return true
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rep, st, ok := s.Result(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if s.notReady(w, st) {
		return
	}
	// The body is served verbatim from the shared renderer, so it is
	// byte-identical to `ehsim -scenario` stdout for the same spec.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Spec-Hash", st.Hash)
	io.WriteString(w, rep.Text)
}

// Windowed-trace query bounds: points defaults to defaultTracePoints
// buckets and is clamped to maxTracePoints. The response is O(points)
// rows whatever the series length (computing it is one pass over the
// window's samples, at most maxTraceSamples), so the bound is about
// response size, not compute.
const (
	defaultTracePoints = 256
	maxTracePoints     = 10_000
)

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rep, st, ok := s.Result(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if s.notReady(w, st) {
		return
	}
	if rep.Trace == nil {
		writeError(w, http.StatusNotFound,
			"job %s has no trace (traces are captured for single-run specs only)", st.ID)
		return
	}
	q := r.URL.Query()
	if q.Has("from") || q.Has("to") || q.Has("points") {
		s.serveTraceWindow(w, st, rep, q)
		return
	}
	// Unqualified: the full CSV, byte-identical to the CLI's trace file,
	// rendered from the columnar store as it streams out — no
	// Content-Length, so net/http uses chunked transfer encoding and
	// clients consume the CSV as it arrives. A write error means the
	// client went away; there is no one left to report it to.
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("X-Spec-Hash", st.Hash)
	_ = result.WriteTrace(w, rep.Trace, rep.SpecHash)
}

// traceQueryFloat parses one optional float query parameter.
func traceQueryFloat(q url.Values, name string, fallback float64) (float64, error) {
	raw := q.Get(name)
	if raw == "" {
		return fallback, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("query parameter %s=%q is not a finite number", name, raw)
	}
	return v, nil
}

// serveTraceWindow answers a windowed trace query: server-side min/max
// decimation of [from, to] into at most `points` buckets per series,
// O(points) rows regardless of how many samples the trace holds. Defaults:
// the trace's full time range and defaultTracePoints buckets.
func (s *Server) serveTraceWindow(w http.ResponseWriter, st JobStatus, rep *result.Report, q url.Values) {
	lo, hi, _ := rep.Trace.TimeRange()
	from, err := traceQueryFloat(q, "from", lo)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	to, err := traceQueryFloat(q, "to", hi)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if to < from {
		writeError(w, http.StatusBadRequest, "query window is empty: from=%g > to=%g", from, to)
		return
	}
	points := defaultTracePoints
	if raw := q.Get("points"); raw != "" {
		points, err = strconv.Atoi(raw)
		if err != nil || points < 1 {
			writeError(w, http.StatusBadRequest, "query parameter points=%q must be a positive integer", raw)
			return
		}
		if points > maxTracePoints {
			points = maxTracePoints
		}
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("X-Spec-Hash", st.Hash)
	fmt.Fprintf(w, "# spec-hash: %s\n", st.Hash)
	rep.Trace.WriteWindowCSV(w, from, to, points)
}

// registryEntry is one name in the /v1/registry listing.
type registryEntry struct {
	Name      string           `json:"name"`
	Desc      string           `json:"desc"`
	Kind      string           `json:"kind,omitempty"`      // sources: voltage|power
	UnifiedNV bool             `json:"unifiednv,omitempty"` // runtimes on unified-NV devices
	Params    []registryParam  `json:"params,omitempty"`
	Metrics   []registryMetric `json:"metrics,omitempty"` // models: objectives explorations can target
}

// registryParam documents one tunable.
type registryParam struct {
	Key     string  `json:"key"`
	Default float64 `json:"default"`
	Desc    string  `json:"desc,omitempty"`
}

// registryMetric documents one structured metric a model reports — the
// objective vocabulary for exploration specs.
type registryMetric struct {
	Key  string `json:"key"`
	Unit string `json:"unit,omitempty"`
	Desc string `json:"desc,omitempty"`
}

func docMetrics(ms []scenario.MetricDoc) []registryMetric {
	if len(ms) == 0 {
		return nil
	}
	out := make([]registryMetric, len(ms))
	for i, m := range ms {
		out[i] = registryMetric{Key: m.Key, Unit: m.Unit, Desc: m.Desc}
	}
	return out
}

func docParams(ps []registry.ParamDoc) []registryParam {
	if len(ps) == 0 {
		return nil
	}
	out := make([]registryParam, len(ps))
	for i, p := range ps {
		out[i] = registryParam{Key: p.Key, Default: p.Default, Desc: p.Desc}
	}
	return out
}

// handleRegistry serves the machine-readable registry listing — the same
// facts `ehsim -list` prints, as JSON, so clients can discover valid
// spec names and parameter defaults before submitting.
func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	var modelEntries []registryEntry
	for _, n := range scenario.ModelNames() {
		m, _ := scenario.LookupModel(n)
		modelEntries = append(modelEntries, registryEntry{
			Name: n, Desc: m.Desc(), Params: docParams(m.Params()), Metrics: docMetrics(m.Metrics()),
		})
	}
	var workloads []registryEntry
	for _, n := range programs.Names() {
		f, _ := programs.Lookup(n)
		workloads = append(workloads, registryEntry{Name: n, Desc: f.Desc})
	}
	var sources []registryEntry
	for _, n := range source.Names() {
		e, _ := source.Lookup(n)
		kind := "voltage"
		if e.Power {
			kind = "power"
		}
		sources = append(sources, registryEntry{Name: n, Desc: e.Desc, Kind: kind, Params: docParams(e.Params)})
	}
	var runtimes []registryEntry
	for _, n := range transient.RuntimeNames() {
		e, _ := transient.LookupRuntime(n)
		runtimes = append(runtimes, registryEntry{Name: n, Desc: e.Desc, UnifiedNV: e.UnifiedNV, Params: docParams(e.Params)})
	}
	var governors []registryEntry
	for _, n := range powerneutral.GovernorNames() {
		e, _ := powerneutral.LookupGovernor(n)
		governors = append(governors, registryEntry{Name: n, Desc: e.Desc, Params: docParams(e.Params)})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"engine":    result.EngineVersion,
		"models":    modelEntries,
		"workloads": workloads,
		"sources":   sources,
		"runtimes":  runtimes,
		"governors": governors,
	})
}

// handleMetrics serves the counters in Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ehsimd_jobs_queued %d\n", m.JobsQueued)
	fmt.Fprintf(w, "ehsimd_jobs_waiting %d\n", m.JobsWaiting)
	fmt.Fprintf(w, "ehsimd_jobs_running %d\n", m.JobsRunning)
	fmt.Fprintf(w, "ehsimd_jobs_done_total %d\n", m.JobsDone)
	fmt.Fprintf(w, "ehsimd_jobs_failed_total %d\n", m.JobsFailed)
	fmt.Fprintf(w, "ehsimd_jobs_canceled_total %d\n", m.JobsCanceled)
	fmt.Fprintf(w, "ehsimd_queue_depth %d\n", m.QueueDepth)
	fmt.Fprintf(w, "ehsimd_queue_bound %d\n", m.QueueBound)
	fmt.Fprintf(w, "ehsimd_queue_free %d\n", m.QueueCapacity)
	fmt.Fprintf(w, "ehsimd_cache_hits_total %d\n", m.CacheHits)
	fmt.Fprintf(w, "ehsimd_cache_misses_total %d\n", m.CacheMisses)
	fmt.Fprintf(w, "ehsimd_cache_entries %d\n", m.CacheEntries)
	fmt.Fprintf(w, "ehsimd_cache_hit_ratio %g\n", m.HitRatio())
	fmt.Fprintf(w, "ehsimd_disk_hits_total %d\n", m.DiskHits)
	fmt.Fprintf(w, "ehsimd_disk_misses_total %d\n", m.DiskMisses)
	fmt.Fprintf(w, "ehsimd_disk_entries %d\n", m.DiskEntries)
	fmt.Fprintf(w, "ehsimd_disk_bytes %d\n", m.DiskBytes)
	fmt.Fprintf(w, "ehsimd_disk_evictions_total %d\n", m.DiskEvictions)
	fmt.Fprintf(w, "ehsimd_disk_corrupt_total %d\n", m.DiskCorrupt)
	fmt.Fprintf(w, "ehsimd_disk_write_errors_total %d\n", m.DiskWriteErrors)
	fmt.Fprintf(w, "ehsimd_peer_hits_total %d\n", m.PeerHits)
	fmt.Fprintf(w, "ehsimd_peer_misses_total %d\n", m.PeerMisses)
	fmt.Fprintf(w, "ehsimd_peer_errors_total %d\n", m.PeerErrors)
	fmt.Fprintf(w, "ehsimd_peer_pushes_total %d\n", m.PeerPushes)
	fmt.Fprintf(w, "ehsimd_explorations_done_total %d\n", m.ExplorationsDone)
	fmt.Fprintf(w, "ehsimd_explore_probes_total %d\n", m.ExploreProbes)
	fmt.Fprintf(w, "ehsimd_explore_cache_hits_total %d\n", m.ExploreCacheHits)
	fmt.Fprintf(w, "ehsimd_explore_cache_misses_total %d\n", m.ExploreCacheMisses)
	fmt.Fprintf(w, "ehsimd_checkpoints_saved_total %d\n", m.CheckpointsSaved)
	fmt.Fprintf(w, "ehsimd_checkpoints_resumed_total %d\n", m.CheckpointsResumed)
	fmt.Fprintf(w, "ehsimd_checkpoints_pending %d\n", m.CheckpointsPending)
	fmt.Fprintf(w, "ehsimd_sim_seconds_total %g\n", m.SimSeconds)
}
