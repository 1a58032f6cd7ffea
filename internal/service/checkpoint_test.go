package service

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/result"
	"repro/internal/scenario"
)

// ckptSpec is a single-run spec long enough (5M integration steps) that
// a drain issued right after submission always lands mid-run.
const ckptSpec = `{"name":"ckpt-drain","model":"eneutral",
	"source":{"name":"const-power","params":{"p":"50m"}},"duration":5000000}`

func TestDrainCheckpointsRunningJobAndResumesByteIdentical(t *testing.T) {
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// The uninterrupted reference, rendered with the daemon's own
	// options so the trace bytes are comparable too.
	sp, err := scenario.Parse([]byte(ckptSpec))
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.RunModel(sp, scenario.RunOptions{
		Trace:         true,
		TraceInterval: traceInterval(float64(sp.Duration)),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Boot 1: accept the job, then drain while it runs.
	s1 := New(Config{Checkpoints: store}).Start()
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	st, resp := submit(t, ts1, ckptSpec)
	if resp.StatusCode != 202 {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	s1.Drain()

	fin, ok := s1.Job(st.ID)
	if !ok || fin.State != JobCheckpointed {
		t.Fatalf("after drain: %+v, want state %q", fin, JobCheckpointed)
	}
	if code, body, _ := getBody(t, ts1.URL+"/v1/jobs/"+st.ID+"/result"); code != 503 {
		t.Errorf("checkpointed job result = %d (%s), want 503", code, body)
	}
	if store.Len() != 1 {
		t.Fatalf("checkpoint store holds %d records, want 1", store.Len())
	}
	if m := s1.Metrics(); m.CheckpointsSaved != 1 || m.CheckpointsPending != 1 {
		t.Errorf("boot-1 metrics: saved=%d pending=%d, want 1/1", m.CheckpointsSaved, m.CheckpointsPending)
	}

	// Boot 2: same store, resume, and the finished result must match the
	// uninterrupted reference byte for byte — report and trace.
	s2 := New(Config{Checkpoints: store}).Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Drain() }()
	if n := s2.ResumeCheckpoints(context.Background()); n != 1 {
		t.Fatalf("ResumeCheckpoints = %d, want 1", n)
	}
	jobs := s2.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("boot 2 carries %d jobs, want the 1 resumed", len(jobs))
	}
	fin2 := await(t, ts2, jobs[0].ID)
	if fin2.State != JobDone {
		t.Fatalf("resumed job: %+v", fin2)
	}
	if code, body, _ := getBody(t, ts2.URL+"/v1/jobs/"+fin2.ID+"/result"); code != 200 || body != want.Text {
		t.Errorf("resumed result (status %d) diverges from uninterrupted run:\n%s\n---\n%s", code, body, want.Text)
	}
	var wantTrace strings.Builder
	if err := result.WriteTrace(&wantTrace, want.Trace, want.SpecHash); err != nil {
		t.Fatal(err)
	}
	if code, body, _ := getBody(t, ts2.URL+"/v1/jobs/"+fin2.ID+"/trace"); code != 200 || body != wantTrace.String() {
		t.Errorf("resumed trace (status %d) diverges from uninterrupted run", code)
	}
	if m := s2.Metrics(); m.CheckpointsResumed != 1 {
		t.Errorf("boot-2 CheckpointsResumed = %d, want 1", m.CheckpointsResumed)
	}
	// The consumed checkpoint is gone: a third boot has nothing to do.
	if store.Len() != 0 {
		t.Errorf("store still holds %d records after resume", store.Len())
	}
}

func TestDrainWithoutStoreStillCompletesJobs(t *testing.T) {
	// Without a checkpoint store, drain keeps the old contract: accepted
	// jobs run to completion.
	s := New(Config{}).Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, _ := submit(t, ts, tinySpec("drain-no-store"))
	s.Drain()
	fin, ok := s.Job(st.ID)
	if !ok || fin.State != JobDone {
		t.Fatalf("after storeless drain: %+v, want done", fin)
	}
}

func TestCheckpointStoreRoundTrip(t *testing.T) {
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey("abc123")
	if _, ok := store.Get(key); ok {
		t.Fatal("empty store served a record")
	}
	if err := store.Put(key, []byte(`{"name":"x"}`), []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	rec, ok := store.Get(key)
	if !ok || rec.Key != key || string(rec.Spec) != `{"name":"x"}` || string(rec.State) != `{"v":1}` {
		t.Fatalf("round trip: %+v", rec)
	}
	if err := store.Put(key, []byte(`{"name":"x"}`), []byte(`{"v":2}`)); err != nil {
		t.Fatal(err) // replace in place
	}
	if rec, _ = store.Get(key); string(rec.State) != `{"v":2}` {
		t.Fatalf("replace kept stale state: %s", rec.State)
	}
	if got := store.List(); len(got) != 1 || store.Len() != 1 {
		t.Fatalf("List = %d records, Len = %d, want 1", len(got), store.Len())
	}
	if _, ok := store.Get(CacheKey("other")); ok {
		t.Error("store served a record under a different key")
	}
	store.Delete(key)
	if store.Len() != 0 {
		t.Error("Delete left the record behind")
	}
}

func TestResumeCheckpointsDropsStaleKeys(t *testing.T) {
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A record whose key does not match the current engine's CacheKey
	// for its spec (as after an engine-version bump): the resubmission
	// runs fresh and the unreachable state is dropped.
	sp, err := scenario.Parse([]byte(tinySpec("stale-key")))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("v0|deadbeef", canon, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Checkpoints: store}).Start()
	defer s.Drain()
	if n := s.ResumeCheckpoints(context.Background()); n != 1 {
		t.Fatalf("ResumeCheckpoints = %d, want 1 (stale records still resubmit)", n)
	}
	if store.Len() != 0 {
		t.Error("stale-keyed record survived resume")
	}
	jobs := s.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs, want 1", len(jobs))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		js, _ := s.Job(jobs[0].ID)
		if js.State == JobDone {
			break
		}
		if js.State != JobQueued && js.State != JobRunning {
			t.Fatalf("resubmitted job: %+v", js)
		}
		if time.Now().After(deadline) {
			t.Fatal("resubmitted job did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTraceIntervalFencepost pins the off-by-one fix: the recorder
// keeps samples at both ends of a run — up to duration/interval + 1 —
// so stretching the interval with a divisor of maxTraceSamples admits
// maxTraceSamples+1 points. The divisor must be maxTraceSamples−1.
func TestTraceIntervalFencepost(t *testing.T) {
	boundary := scenario.DefaultTraceInterval * float64(maxTraceSamples-1)
	for _, d := range []float64{
		0.002, 1.0,
		boundary * 0.999, boundary, boundary * 1.000001,
		3600, 5e6, 1e9,
	} {
		iv := traceInterval(d)
		if pts := math.Floor(d/iv) + 1; pts > maxTraceSamples {
			t.Errorf("duration %g: interval %g admits %.0f samples, cap is %d", d, iv, pts, maxTraceSamples)
		}
		if d <= boundary*0.999 && iv != scenario.DefaultTraceInterval {
			t.Errorf("duration %g: interval stretched to %g below the cap", d, iv)
		}
	}
	// The cap binds tightly: a long run still lands on (not far under)
	// the sample budget.
	if iv := traceInterval(1e6); math.Floor(1e6/iv)+1 < maxTraceSamples-1 {
		t.Errorf("long-run interval %g wastes the sample budget", iv)
	}
}

func TestTraceWindowEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := submit(t, ts, tinySpec("win"))
	fin := await(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("job: %+v", fin)
	}
	base := ts.URL + "/v1/jobs/" + st.ID + "/trace"

	// Unqualified: the legacy full-CSV contract, untouched.
	code, full, hdr := getBody(t, base)
	if code != 200 || hdr.Get("X-Spec-Hash") != st.Hash {
		t.Fatalf("full trace: status %d, hash %q", code, hdr.Get("X-Spec-Hash"))
	}
	if strings.Count(full, "\n") < 3 {
		t.Fatalf("full trace too short:\n%s", full)
	}

	// Windowed: decimated min/max CSV with the spec-hash comment.
	code, body, hdr := getBody(t, base+"?points=2")
	if code != 200 {
		t.Fatalf("windowed trace: status %d: %s", code, body)
	}
	if hdr.Get("X-Spec-Hash") != st.Hash {
		t.Errorf("windowed X-Spec-Hash = %q, want %q", hdr.Get("X-Spec-Hash"), st.Hash)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if lines[0] != "# spec-hash: "+st.Hash {
		t.Errorf("windowed comment line = %q", lines[0])
	}
	if len(lines) < 3 || !strings.HasPrefix(lines[1], "t,") {
		t.Errorf("windowed body lacks header + rows:\n%s", body)
	}
	if len(lines)-2 > 2 {
		t.Errorf("asked for 2 points, got %d rows", len(lines)-2)
	}
	// A sub-window is honoured.
	if code, body, _ = getBody(t, base+"?from=0&to=0.001&points=5"); code != 200 {
		t.Errorf("sub-window: status %d: %s", code, body)
	}
	// An empty window answers the header row alone.
	if code, body, _ = getBody(t, base+"?from=0.001&to=0.001"); code != 200 || strings.Count(body, "\n") != 2 {
		t.Errorf("empty window: status %d, want 200 with comment and header only:\n%s", code, body)
	}

	// Malformed queries are 400s, not silent full dumps.
	for _, q := range []string{"?from=2&to=1", "?points=0", "?points=-3", "?points=abc", "?from=abc", "?to=Inf"} {
		if code, body, _ := getBody(t, base+q); code != 400 {
			t.Errorf("%s: status %d (%s), want 400", q, code, body)
		}
	}

	// Oversized points clamps instead of failing: 3 recorded samples
	// cannot fill 100k buckets, but the request is fine.
	if code, _, _ := getBody(t, base+"?points=100000"); code != 200 {
		t.Errorf("clamped points: status %d, want 200", code)
	}
}
