package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/explore"
	"repro/internal/result"
	"repro/internal/scenario"
)

// tinyExploration returns a fast 3-probe grid exploration; the name
// salt mints distinct exploration (and derived-case) identities.
func tinyExploration(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"base": {
			"name": %q,
			"workload": "fib24",
			"storage": {"c": "10u"},
			"source": {"name": "dc"},
			"duration": 0.002
		},
		"strategy": {"kind": "grid", "axes": [{"param": "c", "values": ["4.7u", "10u", "22u"]}]},
		"aggregators": [{"kind": "topk", "k": 2, "metric": "completions", "goal": "max"}]
	}`, name, name)
}

// submitExploration POSTs an exploration spec and decodes the status.
func submitExploration(t *testing.T, ts *httptest.Server, spec string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/explorations", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding exploration submit response: %v", err)
		}
	}
	return st, resp
}

func TestExplorationJobServesCLIIdenticalResult(t *testing.T) {
	_, ts := testServer(t, Config{})
	spec := tinyExploration("svc-explore-identity")

	st, resp := submitExploration(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if st.Kind != KindExploration || st.Spec != "svc-explore-identity" {
		t.Fatalf("status = %+v, want an exploration job", st)
	}
	fin := await(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("final state = %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Done != fin.Total || fin.Total != 3 {
		t.Errorf("progress = %d/%d, want 3/3", fin.Done, fin.Total)
	}

	code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	es, err := explore.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := result.RunExploration(es, scenario.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if body != rep.Text {
		t.Errorf("daemon result differs from the CLI renderer:\n--- daemon\n%s\n--- cli\n%s", body, rep.Text)
	}
}

func TestRepeatedExplorationServesProbesFromCache(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := tinyExploration("svc-explore-cache")

	run := func() {
		st, resp := submitExploration(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		if fin := await(t, ts, st.ID); fin.State != JobDone {
			t.Fatalf("final state = %s (%s), want done", fin.State, fin.Error)
		}
	}

	run()
	m := s.Metrics()
	if m.ExploreProbes != 3 || m.ExploreCacheMisses != 3 || m.ExploreCacheHits != 0 {
		t.Fatalf("cold run: probes/misses/hits = %d/%d/%d, want 3/3/0",
			m.ExploreProbes, m.ExploreCacheMisses, m.ExploreCacheHits)
	}

	run()
	m = s.Metrics()
	if m.ExploreProbes != 6 || m.ExploreCacheMisses != 3 || m.ExploreCacheHits != 3 {
		t.Errorf("warm run: probes/misses/hits = %d/%d/%d, want 6/3/3 (every probe a cache hit)",
			m.ExploreProbes, m.ExploreCacheMisses, m.ExploreCacheHits)
	}
	if m.ExplorationsDone != 2 {
		t.Errorf("explorations done = %d, want 2", m.ExplorationsDone)
	}
}

func TestExplorationProbesSurviveRestartViaCAS(t *testing.T) {
	dir := t.TempDir()
	store, err := cas.Open(dir, cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinyExploration("svc-explore-cas")

	s1, ts1 := testServer(t, Config{CAS: store})
	st, _ := submitExploration(t, ts1, spec)
	if fin := await(t, ts1, st.ID); fin.State != JobDone {
		t.Fatalf("first daemon: state %s (%s)", fin.State, fin.Error)
	}
	if m := s1.Metrics(); m.ExploreCacheMisses != 3 {
		t.Fatalf("first daemon computed %d probes, want 3", m.ExploreCacheMisses)
	}

	// A fresh server on the same store has an empty memory cache; every
	// probe should resolve from disk.
	s2, ts2 := testServer(t, Config{CAS: store})
	st2, _ := submitExploration(t, ts2, spec)
	if fin := await(t, ts2, st2.ID); fin.State != JobDone {
		t.Fatalf("second daemon: state %s (%s)", fin.State, fin.Error)
	}
	if m := s2.Metrics(); m.ExploreCacheHits != 3 || m.ExploreCacheMisses != 0 || m.DiskHits != 3 {
		t.Errorf("second daemon: hits/misses/disk = %d/%d/%d, want 3/0/3",
			m.ExploreCacheHits, m.ExploreCacheMisses, m.DiskHits)
	}
}

func TestExplorationCancel(t *testing.T) {
	t.Run("queued", func(t *testing.T) {
		// Not started: the job can never leave the queue, so the cancel
		// path exercised is the queued one, deterministically.
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		st, _ := submitExploration(t, ts, tinyExploration("svc-explore-cancel-q"))
		fin, ok := s.Cancel(st.ID)
		if !ok || fin.State != JobCanceled {
			t.Fatalf("cancel: %+v ok=%v, want canceled", fin, ok)
		}
	})
	t.Run("running", func(t *testing.T) {
		_, ts := testServer(t, Config{})
		// Probes this long would take minutes; the test passes only
		// because cancellation interrupts the probe's stepping loop.
		spec := `{
			"name": "svc-explore-cancel-r",
			"base": {
				"name": "svc-explore-cancel-r",
				"workload": "fib24",
				"storage": {"c": "10u"},
				"source": {"name": "dc"},
				"duration": 600
			},
			"strategy": {"kind": "grid", "axes": [{"param": "c", "values": ["4.7u", "10u"]}]},
			"aggregators": [{"kind": "topk", "k": 1, "metric": "completions", "goal": "max"}]
		}`
		st, _ := submitExploration(t, ts, spec)
		for deadline := time.Now().Add(10 * time.Second); ; {
			got, _ := pollJob(t, ts, st.ID)
			if got.State == JobRunning {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("exploration never started running: %+v", got)
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
	})
}

func TestExplorationDrainCompletesAcceptedJob(t *testing.T) {
	s := New(Config{}).Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, resp := submitExploration(t, ts, tinyExploration("svc-explore-drain"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	s.Drain()
	if got, _ := s.Job(st.ID); got.State != JobDone {
		t.Errorf("after drain: state %s (%s), want done", got.State, got.Error)
	}
	if _, err := s.SubmitExploration([]byte(tinyExploration("svc-explore-drain-2"))); err != ErrDraining {
		t.Errorf("submit after drain: %v, want ErrDraining", err)
	}
}

func TestExplorationInvalidSpecIs400(t *testing.T) {
	_, ts := testServer(t, Config{})
	bad := `{"name": "nope", "base": {"name": "nope", "workload": "fib24",
		"storage": {"c": "10u"}, "source": {"name": "dc"}, "duration": 0.002},
		"strategy": {"kind": "anneal"}}`
	_, resp := submitExploration(t, ts, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestExplorationBackpressure429(t *testing.T) {
	// Not started with a depth-1 queue: the first exploration occupies
	// the only slot, the second must bounce with Retry-After.
	s := New(Config{QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, resp := submitExploration(t, ts, tinyExploration("svc-explore-bp-1")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	_, resp := submitExploration(t, ts, tinyExploration("svc-explore-bp-2"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After hint")
	}
}

func TestRegistryListsModelMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, body, _ := getBody(t, ts.URL+"/v1/registry")
	if code != http.StatusOK {
		t.Fatalf("registry: status %d", code)
	}
	for _, frag := range []string{`"metrics":[`, `"energy_per_op"`, `"mean_fps"`, `"first_fire"`, `"worst_window"`} {
		if !strings.Contains(body, frag) {
			t.Errorf("registry body lacks %s", frag)
		}
	}
}
