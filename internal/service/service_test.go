package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/result"
	"repro/internal/scenario"
)

// tinySpec returns a fast-running single spec; the name salt lets tests
// mint distinct cache keys on demand.
func tinySpec(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 0.002
	}`, name)
}

func tinySweepSpec(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 0.002,
		"sweep": [{"param": "c", "values": ["4.7u", "10u"]}]
	}`, name)
}

// testServer boots a started service behind an httptest server.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg).Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

// submit POSTs a spec and decodes the status.
func submit(t *testing.T, ts *httptest.Server, spec string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return st, resp
}

// await polls a job until it leaves the queued/running states.
func await(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobQueued && st.State != JobRunning {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return JobStatus{}
}

func getBody(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

func TestSubmitRunsAndResultMatchesSharedRenderer(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, resp := submit(t, ts, tinySpec("svc-single"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.Hash == "" {
		t.Fatalf("bad status: %+v", st)
	}
	fin := await(t, ts, st.ID)
	if fin.State != JobDone || fin.Done != 1 || fin.Total != 1 {
		t.Fatalf("final status: %+v", fin)
	}

	code, body, hdr := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result status = %d: %s", code, body)
	}
	if hdr.Get("X-Spec-Hash") != st.Hash {
		t.Errorf("X-Spec-Hash = %q, want %q", hdr.Get("X-Spec-Hash"), st.Hash)
	}
	sp, err := scenario.Parse([]byte(tinySpec("svc-single")))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if body != rep.Text {
		t.Errorf("daemon result diverges from the shared renderer:\n%s\n---\n%s", body, rep.Text)
	}
}

// TestCuratedSpecsServeByteIdentical submits every curated spec in
// examples/scenarios — all four scenario models — through the daemon
// and requires the served report to match the shared renderer byte for
// byte. This is the service half of the taxonomy-complete contract; the
// CLI half is cmd/ehsim's golden test over the same files.
func TestCuratedSpecsServeByteIdentical(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no curated specs: %v", err)
	}
	_, ts := testServer(t, Config{})
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			st, resp := submit(t, ts, string(data))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit status = %d", resp.StatusCode)
			}
			fin := await(t, ts, st.ID)
			if fin.State != JobDone {
				t.Fatalf("final status: %+v", fin)
			}
			code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
			if code != http.StatusOK {
				t.Fatalf("result status = %d: %s", code, body)
			}
			sp, err := scenario.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := scenario.RunModel(sp, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if body != rep.Text {
				t.Errorf("daemon result diverges from the shared renderer:\n%s\n---\n%s", body, rep.Text)
			}
			// Single-run jobs — every model — must also serve a trace.
			if !sp.HasSweep() {
				code, trc, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
				if code != http.StatusOK || !strings.HasPrefix(trc, "# spec-hash: "+st.Hash) {
					t.Errorf("trace status %d / missing spec-hash header:\n%.80s", code, trc)
				}
			}
		})
	}
}

func TestResubmitIdenticalSpecHitsCache(t *testing.T) {
	s, ts := testServer(t, Config{})
	st, _ := submit(t, ts, tinySpec("svc-cached"))
	await(t, ts, st.ID)

	st2, resp2 := submit(t, ts, tinySpec("svc-cached"))
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("cache-hit submit status = %d, want 200", resp2.StatusCode)
	}
	if st2.State != JobDone || !st2.Cached {
		t.Errorf("resubmission should be served from cache: %+v", st2)
	}
	if st2.Hash != st.Hash {
		t.Errorf("hash changed across identical submissions: %s vs %s", st.Hash, st2.Hash)
	}
	_, body1, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	_, body2, _ := getBody(t, ts.URL+"/v1/jobs/"+st2.ID+"/result")
	if body1 != body2 {
		t.Errorf("cached result differs from computed result")
	}
	m := s.Metrics()
	if m.CacheMisses != 1 || m.CacheHits != 1 {
		t.Errorf("metrics = hits %d / misses %d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if m.SimSeconds != 0.002 {
		t.Errorf("SimSeconds = %g, want 0.002 (cache hits must not recount work)", m.SimSeconds)
	}
}

func TestParallelIdenticalSubmissionsSingleFlight(t *testing.T) {
	s, ts := testServer(t, Config{JobWorkers: 4})
	const n = 12
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := submit(t, ts, tinySpec("svc-flight"))
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	var text string
	for i, id := range ids {
		if id == "" {
			continue
		}
		fin := await(t, ts, id)
		if fin.State != JobDone {
			t.Fatalf("job %s: %+v", id, fin)
		}
		_, body, _ := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
		if i == 0 {
			text = body
		} else if body != text {
			t.Errorf("job %s result differs from job %s", id, ids[0])
		}
	}
	m := s.Metrics()
	if m.CacheMisses != 1 {
		t.Errorf("%d identical submissions computed %d times, want 1 (single-flight)", n, m.CacheMisses)
	}
	if m.CacheHits != n-1 {
		t.Errorf("cache hits = %d, want %d", m.CacheHits, n-1)
	}
	if int(m.JobsDone) != n {
		t.Errorf("jobs done = %d, want %d", m.JobsDone, n)
	}
}

func TestParallelDistinctSubmissionsAllCompute(t *testing.T) {
	s, ts := testServer(t, Config{JobWorkers: 4})
	const n = 6
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := submit(t, ts, tinySpec(fmt.Sprintf("svc-distinct-%d", i)))
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			continue
		}
		if fin := await(t, ts, id); fin.State != JobDone {
			t.Errorf("job %s: %+v", id, fin)
		}
	}
	m := s.Metrics()
	if m.CacheMisses != n || m.CacheHits != 0 {
		t.Errorf("metrics = hits %d / misses %d, want 0/%d", m.CacheHits, m.CacheMisses, n)
	}
}

func TestQueueBackpressure429(t *testing.T) {
	// Not yet started: the queue never drains, so the bound is observable
	// deterministically.
	s := New(Config{QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		_, resp := submit(t, ts, tinySpec(fmt.Sprintf("svc-bp-%d", i)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	_, resp := submit(t, ts, tinySpec("svc-bp-overflow"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	// Deduplicated submissions ride the in-flight computation, not the
	// queue, so an identical spec is accepted even at capacity.
	if _, resp := submit(t, ts, tinySpec("svc-bp-0")); resp.StatusCode != http.StatusAccepted {
		t.Errorf("identical spec at capacity: status %d, want 202 (dedup bypasses the queue)", resp.StatusCode)
	}
	// An aborted overflow leader must not poison the cache key.
	s.Start()
	st, resp := submit(t, ts, tinySpec("svc-bp-overflow"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-overflow resubmit: status %d", resp.StatusCode)
	}
	if fin := await(t, ts, st.ID); fin.State != JobDone {
		t.Errorf("post-overflow resubmit: %+v", fin)
	}
	s.Drain()
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{}) // not started: jobs stay queued until Start
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _ := submit(t, ts, tinySpec("svc-cancel"))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != JobCanceled {
		t.Fatalf("cancel response state = %s", got.State)
	}
	code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusGone {
		t.Errorf("canceled job result: status %d (%s), want 410", code, body)
	}
	// The canceled leader released its cache key: resubmission computes.
	s.Start()
	st2, _ := submit(t, ts, tinySpec("svc-cancel"))
	if fin := await(t, ts, st2.ID); fin.State != JobDone {
		t.Errorf("resubmit after cancel: %+v", fin)
	}
	s.Drain()
}

func TestResultNotReadyIs409(t *testing.T) {
	s := New(Config{}) // not started: the job stays queued
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()
	defer s.Start() // drain needs workers to consume the queued job

	st, _ := submit(t, ts, tinySpec("svc-pending"))
	code, _, hdr := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusConflict {
		t.Errorf("pending result: status %d, want 409", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("409 response missing Retry-After")
	}
}

func TestTraceEndpointStreamsCSVWithHash(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := submit(t, ts, tinySpec("svc-trace"))
	await(t, ts, st.ID)

	code, body, hdr := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace status = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.HasPrefix(body, "# spec-hash: "+st.Hash+"\n") {
		t.Errorf("trace missing spec-hash header:\n%.120s", body)
	}
	if !strings.Contains(body, "t,vcc(V)") {
		t.Errorf("trace CSV columns missing:\n%.200s", body)
	}

	// Sweep jobs have no single trace.
	st2, _ := submit(t, ts, tinySweepSpec("svc-trace-sweep"))
	await(t, ts, st2.ID)
	if code, _, _ := getBody(t, ts.URL+"/v1/jobs/"+st2.ID+"/trace"); code != http.StatusNotFound {
		t.Errorf("sweep trace: status %d, want 404", code)
	}
}

func TestSweepJobReportsProgressAndResult(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := submit(t, ts, tinySweepSpec("svc-sweep"))
	fin := await(t, ts, st.ID)
	if fin.State != JobDone || !fin.Sweep || fin.Done != 2 || fin.Total != 2 {
		t.Fatalf("final status: %+v", fin)
	}
	_, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	for _, frag := range []string{"sweep over c, 2 cases", "c=4.7µF", "c=10µF"} {
		if !strings.Contains(body, frag) {
			t.Errorf("sweep result missing %q:\n%s", frag, body)
		}
	}
}

func TestInvalidSpecIs400(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"name":"bad","workload":"nope","storage":{"c":"10u"},"source":{"name":"dc"},"duration":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(b, []byte("unknown workload")) {
		t.Errorf("error body should carry the registry message: %s", b)
	}
}

func TestDrainCompletesAcceptedJobsThenRejects(t *testing.T) {
	s := New(Config{}) // started only after both jobs are queued
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st1, _ := submit(t, ts, tinySpec("svc-drain-1"))
	st2, _ := submit(t, ts, tinySpec("svc-drain-2"))
	s.Start()
	s.Drain() // must run both queued jobs to completion before returning

	for _, id := range []string{st1.ID, st2.ID} {
		got, ok := s.Job(id)
		if !ok || got.State != JobDone {
			t.Errorf("after drain, job %s: %+v", id, got)
		}
	}
	_, resp := submit(t, ts, tinySpec("svc-drain-late"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
}

func TestRegistryEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, body, _ := getBody(t, ts.URL+"/v1/registry")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var reg struct {
		Engine    string          `json:"engine"`
		Models    []registryEntry `json:"models"`
		Workloads []registryEntry `json:"workloads"`
		Sources   []registryEntry `json:"sources"`
		Runtimes  []registryEntry `json:"runtimes"`
		Governors []registryEntry `json:"governors"`
	}
	if err := json.Unmarshal([]byte(body), &reg); err != nil {
		t.Fatalf("decoding registry: %v", err)
	}
	if reg.Engine != result.EngineVersion {
		t.Errorf("engine = %q", reg.Engine)
	}
	if len(reg.Models) != 4 || len(reg.Workloads) == 0 || len(reg.Sources) == 0 || len(reg.Runtimes) == 0 || len(reg.Governors) == 0 {
		t.Fatalf("registry sections empty or wrong: %s", body)
	}
	for _, frag := range []string{
		`"lab"`, `"mpsoc"`, `"taskburst"`, `"eneutral"`, `"taskenergy"`,
		"fft64", "rectified-sine", "hibernus-pn", "hillclimb", `"margin"`,
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("registry missing %q", frag)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := submit(t, ts, tinySpec("svc-metrics"))
	await(t, ts, st.ID)
	submit(t, ts, tinySpec("svc-metrics"))

	code, body, _ := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, frag := range []string{
		"ehsimd_jobs_done_total 2",
		"ehsimd_cache_hits_total 1",
		"ehsimd_cache_misses_total 1",
		"ehsimd_cache_hit_ratio 0.5",
		"ehsimd_sim_seconds_total 0.002",
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("metrics missing %q:\n%s", frag, body)
		}
	}
}

// Regression: the queue-depth gauge used to report the *configured
// bound* (a constant) instead of the number of pending jobs, and the
// free-slot gauge was mislabelled as capacity. With jobs parked in the
// queue (no workers started), depth must track them and depth + free
// must equal the configured bound.
func TestQueueDepthTracksPendingJobs(t *testing.T) {
	s := New(Config{QueueDepth: 4}) // deliberately not Started: jobs stay queued
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(wantDepth int) {
		t.Helper()
		m := s.Metrics()
		if m.QueueBound != 4 {
			t.Fatalf("QueueBound = %d, want 4", m.QueueBound)
		}
		if m.QueueDepth != wantDepth {
			t.Errorf("QueueDepth = %d, want %d", m.QueueDepth, wantDepth)
		}
		if m.QueueDepth+m.QueueCapacity != m.QueueBound {
			t.Errorf("depth %d + free %d != bound %d", m.QueueDepth, m.QueueCapacity, m.QueueBound)
		}
	}
	check(0)
	submit(t, ts, tinySpec("svc-depth-a"))
	check(1)
	st, _ := submit(t, ts, tinySpec("svc-depth-b"))
	check(2)

	code, body, _ := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, frag := range []string{
		"ehsimd_queue_depth 2",
		"ehsimd_queue_bound 4",
		"ehsimd_queue_free 2",
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("metrics missing %q:\n%s", frag, body)
		}
	}

	// Canceling a queued job frees its slot immediately.
	if _, ok := s.Cancel(st.ID); !ok {
		t.Fatal("cancel failed")
	}
	check(1)
}

func TestJobsListing(t *testing.T) {
	_, ts := testServer(t, Config{})
	a, _ := submit(t, ts, tinySpec("svc-list-a"))
	b, _ := submit(t, ts, tinySpec("svc-list-b"))
	await(t, ts, a.ID)
	await(t, ts, b.ID)
	code, body, _ := getBody(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var listing struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 2 || listing.Jobs[0].ID != a.ID || listing.Jobs[1].ID != b.ID {
		t.Errorf("listing = %+v", listing.Jobs)
	}
}

func TestJobHistoryPrunesOldestFinished(t *testing.T) {
	s, ts := testServer(t, Config{JobHistory: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		st, _ := submit(t, ts, tinySpec(fmt.Sprintf("svc-hist-%d", i)))
		await(t, ts, st.ID)
		ids = append(ids, st.ID)
	}
	if n := len(s.Jobs()); n != 2 {
		t.Errorf("registry retains %d jobs, want 2", n)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Errorf("oldest finished job %s should be pruned", ids[0])
	}
	if _, ok := s.Job(ids[3]); !ok {
		t.Errorf("newest job %s should survive", ids[3])
	}
}

func TestOversizedSweepRejectedAtSubmit(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Three 60-point axes expand to 216k cases — over the grid bound
	// scenario.Validate enforces, surfaced as a 400 here.
	var pts []string
	for i := 0; i < 60; i++ {
		pts = append(pts, fmt.Sprintf("%g", 1e-6+float64(i)*1e-7))
	}
	vals := strings.Join(pts, ",")
	spec := fmt.Sprintf(`{
		"name": "svc-huge-grid",
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 0.002,
		"sweep": [
			{"param": "c", "values": [%s]},
			{"param": "duration", "values": [%s]},
			{"param": "v0", "values": [%s]}
		]
	}`, vals, vals, vals)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized sweep: status %d, want 400", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(b, []byte("cases")) {
		t.Errorf("error should explain the case bound: %s", b)
	}
}

func TestPruneSparesTheJobJustSubmitted(t *testing.T) {
	// With a history bound of 1, a cache-hit resubmission is born
	// finished and would be the prune's natural victim — but the id just
	// handed to the client must stay pollable.
	_, ts := testServer(t, Config{JobHistory: 1})
	st, _ := submit(t, ts, tinySpec("svc-prune-self"))
	await(t, ts, st.ID)
	st2, resp := submit(t, ts, tinySpec("svc-prune-self"))
	if resp.StatusCode != http.StatusOK || st2.State != JobDone {
		t.Fatalf("resubmit: status %d, %+v", resp.StatusCode, st2)
	}
	if code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st2.ID); code != http.StatusOK {
		t.Errorf("just-returned job id %s: status %d (%s), want 200", st2.ID, code, body)
	}
}

func TestSubmitReportsTotalUpfront(t *testing.T) {
	s := New(Config{}) // not started: jobs stay queued
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()
	defer s.Start()

	st, _ := submit(t, ts, tinySpec("svc-total-single"))
	if st.Total != 1 || st.Done != 0 {
		t.Errorf("single queued job progress = %d/%d, want 0/1", st.Done, st.Total)
	}
	st, _ = submit(t, ts, tinySweepSpec("svc-total-sweep"))
	if st.Total != 2 || st.Done != 0 {
		t.Errorf("sweep queued job progress = %d/%d, want 0/2", st.Done, st.Total)
	}
}

func TestTraceIntervalBoundsLongRuns(t *testing.T) {
	if got := traceInterval(0.5); got != scenario.DefaultTraceInterval {
		t.Errorf("short run interval = %g, want default %g", got, scenario.DefaultTraceInterval)
	}
	long := 3600.0
	got := traceInterval(long)
	if got <= scenario.DefaultTraceInterval {
		t.Errorf("long run interval = %g, want stretched above %g", got, scenario.DefaultTraceInterval)
	}
	// float division noise can land a fraction above the cap; a single
	// sample of slack is immaterial.
	if samples := long / got; samples > maxTraceSamples+1 {
		t.Errorf("long run still records %.0f samples, cap is %d", samples, maxTraceSamples)
	}
}

func TestCancelRunningSingleRunAbortsPromptly(t *testing.T) {
	_, ts := testServer(t, Config{})
	// A duration this long would take minutes of wall-clock; the test
	// passes only because cancellation interrupts the stepping loop.
	spec := `{
		"name": "svc-cancel-running",
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 600
	}`
	st, _ := submit(t, ts, spec)
	// Wait until it is actually running, then cancel.
	for deadline := time.Now().Add(10 * time.Second); ; {
		got, _ := pollJob(t, ts, st.ID)
		if got.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin := await(t, ts, st.ID); fin.State != JobCanceled {
		t.Errorf("final state = %s, want canceled", fin.State)
	}
}

func TestCancelRunningLabSweepAbortsPromptly(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Each case would take minutes of wall-clock; the test passes only
	// because the sweep's workers see the cancel between chunks.
	spec := `{
		"name": "svc-cancel-running-sweep",
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 600,
		"sweep": [{"param": "c", "values": ["10u", "22u", "47u"]}]
	}`
	st, _ := submit(t, ts, spec)
	for deadline := time.Now().Add(10 * time.Second); ; {
		got, _ := pollJob(t, ts, st.ID)
		if got.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin := await(t, ts, st.ID); fin.State != JobCanceled {
		t.Errorf("final state = %s, want canceled", fin.State)
	}
}

// pollJob fetches a job status (helper for polling loops that need the
// raw state).
func pollJob(t *testing.T, ts *httptest.Server, id string) (JobStatus, bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return JobStatus{}, false
	}
	return st, true
}

func TestFollowerBoundStopsRetryStorms(t *testing.T) {
	// Followers have their own bound (= queue depth, here 1). Not
	// started, so the leader stays queued; followers of the same spec
	// must hit the bound instead of growing without limit.
	s := New(Config{QueueDepth: 1, JobWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, resp := submit(t, ts, tinySpec("svc-active")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("leader: status %d", resp.StatusCode)
	}
	if _, resp := submit(t, ts, tinySpec("svc-active")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first follower: status %d", resp.StatusCode)
	}
	_, resp := submit(t, ts, tinySpec("svc-active"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("follower beyond the active bound: status %d, want 429", resp.StatusCode)
	}
	s.Start()
	s.Drain()
}

func TestCancelFreesQueueSlots(t *testing.T) {
	// Not started: jobs stay pending. Canceling a queued job must free
	// its queue slot immediately — no tombstones wedging intake while
	// workers are busy.
	s := New(Config{QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, resp := submit(t, ts, tinySpec("svc-slot-a"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	if _, resp := submit(t, ts, tinySpec("svc-slot-b")); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue full: status %d, want 429", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if r, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
	}
	st2, resp := submit(t, ts, tinySpec("svc-slot-b"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d, want 202 (slot freed)", resp.StatusCode)
	}
	s.Start()
	if fin := await(t, ts, st2.ID); fin.State != JobDone {
		t.Errorf("replacement job: %+v", fin)
	}
	s.Drain()
}

func TestCacheHitServedEvenWhenSaturated(t *testing.T) {
	// Active bound = QueueDepth 1 + default 2 workers = 3.
	s, ts := testServer(t, Config{QueueDepth: 1})
	cached, _ := submit(t, ts, tinySpec("svc-sat-cached"))
	await(t, ts, cached.ID)

	// Saturate: two long-running jobs occupy both workers, a third
	// fills the queue.
	longSpec := func(i int) string {
		return fmt.Sprintf(`{
			"name": "svc-sat-long-%d",
			"workload": "fib24",
			"storage": {"c": "10u"},
			"source": {"name": "dc"},
			"duration": 600
		}`, i)
	}
	var longIDs []string
	for i := 0; i < 3; i++ {
		st, resp := submit(t, ts, longSpec(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("long submit %d: status %d", i, resp.StatusCode)
		}
		longIDs = append(longIDs, st.ID)
	}
	defer func() { // interrupt the long runs so Drain stays fast
		for _, id := range longIDs {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
			if r, err := http.DefaultClient.Do(req); err == nil {
				r.Body.Close()
			}
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		m := s.Metrics()
		if m.JobsRunning == 2 && m.JobsQueued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never saturated: %+v", m)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// New work is rejected, but the known-cached spec still answers
	// instantly, and a duplicate of an in-flight spec still rides the
	// computation as a follower.
	if _, resp := submit(t, ts, tinySpec("svc-sat-fresh")); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("fresh spec under saturation: status %d, want 429", resp.StatusCode)
	}
	st, resp := submit(t, ts, tinySpec("svc-sat-cached"))
	if resp.StatusCode != http.StatusOK || st.State != JobDone || !st.Cached {
		t.Errorf("cached spec under saturation: status %d, %+v; want instant 200 done", resp.StatusCode, st)
	}
	dup, resp := submit(t, ts, longSpec(0))
	if resp.StatusCode != http.StatusAccepted || !dup.Cached {
		t.Errorf("duplicate of in-flight spec under saturation: status %d, %+v; want 202 follower", resp.StatusCode, dup)
	}
	longIDs = append(longIDs, dup.ID)
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/result", "/v1/jobs/job-999999/trace"} {
		if code, _, _ := getBody(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, code)
		}
	}
}

// Regression: job-history pruning used to drop finished records purely
// by insertion order. A finished leader whose cache entry still has an
// unresolved single-flight follower must stay pollable until the rider
// releases — its id is what the follower's client correlates against.
func TestPruneSkipsFinishedJobWithActiveRider(t *testing.T) {
	srv, ts := testServer(t, Config{JobWorkers: 2, JobHistory: 1})
	st, _ := submit(t, ts, tinySpec("prune-rider"))
	fin := await(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("job state = %s, want done", fin.State)
	}

	// Pin an artificial rider on the finished job's entry — a stand-in
	// for a follower between its leader's completion and its own resolve.
	e, ok := srv.cache.Probe(CacheKey(fin.Hash))
	if !ok {
		t.Fatal("finished job has no cache entry")
	}
	srv.cache.mu.Lock()
	e.riders++
	srv.cache.mu.Unlock()

	for i := 0; i < 4; i++ {
		fst, _ := submit(t, ts, tinySpec(fmt.Sprintf("prune-filler-%d", i)))
		await(t, ts, fst.ID)
	}
	if _, ok := srv.Job(st.ID); !ok {
		t.Fatal("finished job with an active rider was pruned from history")
	}

	srv.cache.Release(e)
	lst, _ := submit(t, ts, tinySpec("prune-last"))
	await(t, ts, lst.ID)
	if _, ok := srv.Job(st.ID); ok {
		t.Error("job record not pruned after its rider released")
	}
}

// The disk CAS is the warm-restart tier: a fresh server process opening
// the same cache directory must serve previously computed results
// byte-identically, marked cached with source "disk".
func TestDiskCASServesAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	store1, err := cas.Open(dir, cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{JobWorkers: 2, CAS: store1}).Start()
	ts1 := httptest.NewServer(s1.Handler())
	st, _ := submit(t, ts1, tinySpec("disk-restart"))
	fin := await(t, ts1, st.ID)
	if fin.State != JobDone || fin.Cached {
		t.Fatalf("first run: state=%s cached=%v, want fresh done", fin.State, fin.Cached)
	}
	code, body1, _ := getBody(t, ts1.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("first result: status %d", code)
	}
	ts1.Close()
	s1.Drain()

	// "Restart": a new process = new store handle over the same dir.
	store2, err := cas.Open(dir, cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if store2.Len() == 0 {
		t.Fatal("CAS empty after reopen; write-through did not persist")
	}
	srv2, ts2 := testServer(t, Config{JobWorkers: 2, CAS: store2})
	st2, _ := submit(t, ts2, tinySpec("disk-restart"))
	fin2 := await(t, ts2, st2.ID)
	if fin2.State != JobDone || !fin2.Cached || fin2.Source != SourceDisk {
		t.Fatalf("after restart: state=%s cached=%v source=%q, want done/cached/disk", fin2.State, fin2.Cached, fin2.Source)
	}
	code, body2, _ := getBody(t, ts2.URL+"/v1/jobs/"+st2.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("restart result: status %d", code)
	}
	if body2 != body1 {
		t.Errorf("disk-served result differs from computed result:\n%s\n---\n%s", body2, body1)
	}
	if m := srv2.Metrics(); m.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", m.DiskHits)
	}
}

// A corrupted blob must read as a miss — the spec recomputes and the
// result stays byte-identical, never a served wrong body.
func TestDiskCASCorruptionForcesRecompute(t *testing.T) {
	dir := t.TempDir()
	store, err := cas.Open(dir, cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{JobWorkers: 2, CAS: store}).Start()
	ts1 := httptest.NewServer(s1.Handler())
	st, _ := submit(t, ts1, tinySpec("disk-corrupt"))
	await(t, ts1, st.ID)
	_, body1, _ := getBody(t, ts1.URL+"/v1/jobs/"+st.ID+"/result")
	ts1.Close()
	s1.Drain()

	// Flip bytes in the stored blob directly, then restart over it.
	path := store.BlobPath(CacheKey(st.Hash))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := cas.Open(dir, cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := testServer(t, Config{JobWorkers: 2, CAS: store2})
	st2, _ := submit(t, ts2, tinySpec("disk-corrupt"))
	fin2 := await(t, ts2, st2.ID)
	if fin2.State != JobDone {
		t.Fatalf("recompute state = %s", fin2.State)
	}
	if fin2.Cached {
		t.Errorf("corrupt blob served as a cache hit (source %q)", fin2.Source)
	}
	_, body2, _ := getBody(t, ts2.URL+"/v1/jobs/"+st2.ID+"/result")
	if body2 != body1 {
		t.Error("recomputed result differs from original")
	}
	if m := srv2.Metrics(); m.DiskMisses == 0 {
		t.Errorf("DiskMisses = %d, want ≥1", m.DiskMisses)
	}
}

// POST /v1/batches streams one NDJSON line per spec as it completes,
// with per-line errors for invalid members and full report text for
// done ones.
func TestBatchEndpointStreamsCompletions(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 2})
	specs := []string{
		tinySpec("batch-a"),
		`{"this is": "not a scenario"}`,
		tinySweepSpec("batch-b"),
	}
	req := fmt.Sprintf(`{"specs":[%s]}`, strings.Join(specs, ","))
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", got)
	}
	if got := resp.Header.Get("X-Batch-Size"); got != "3" {
		t.Errorf("X-Batch-Size = %q", got)
	}

	byIndex := map[int]batchItem{}
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < len(specs); i++ {
		var item batchItem
		if err := dec.Decode(&item); err != nil {
			t.Fatalf("decoding stream line %d: %v", i, err)
		}
		byIndex[item.Index] = item
	}
	if dec.More() {
		t.Error("stream has extra lines past the batch size")
	}

	for _, idx := range []int{0, 2} {
		item := byIndex[idx]
		if item.State != JobDone || item.Error != "" {
			t.Fatalf("spec %d: state=%s err=%q", idx, item.State, item.Error)
		}
		// The streamed result must be byte-identical to the result
		// endpoint's body for the same job.
		code, want, _ := getBody(t, ts.URL+"/v1/jobs/"+item.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("spec %d result status %d", idx, code)
		}
		if item.Result != want {
			t.Errorf("spec %d: streamed result differs from /result body", idx)
		}
	}
	if bad := byIndex[1]; bad.Error == "" || bad.State == JobDone {
		t.Errorf("invalid spec: error=%q state=%s, want per-line error", bad.Error, bad.State)
	}
}
