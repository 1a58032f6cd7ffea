package service

import (
	"testing"
	"time"

	"repro/internal/explore"
)

// caseZeroSpec returns the canonical JSON of the first derived spec a
// grid exploration probes, and that probe's cache key: submitted as a
// job, it claims the very key the exploration's first probe asks for.
func caseZeroSpec(t *testing.T, exploration string) (string, string) {
	t.Helper()
	es, err := explore.Parse([]byte(exploration))
	if err != nil {
		t.Fatal(err)
	}
	work := es.Base.Clone()
	work.Sweep = es.Strategy.Axes
	cs, err := work.At(work.Grid().CaseAt(0))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := cs.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := cs.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return string(canon), CacheKey(hash)
}

// awaitRider waits until the in-flight entry for key has a rider — the
// probe (or follower) under test is parked on it.
func awaitRider(t *testing.T, s *Server, key string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if e, ok := s.cache.Probe(key); ok && s.cache.Riders(e) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("nothing ever rode the entry for %s", key)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cancelAndDrain cancels every job and drains s, so a test that fails
// midway leaves no run behind it and no probe parked on a queued job.
func cancelAndDrain(s *Server) {
	for _, js := range s.Jobs() {
		s.Cancel(js.ID)
	}
	s.Drain()
}

// awaitState waits for a job to reach state.
func awaitState(t *testing.T, s *Server, id string, state JobState) JobStatus {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; {
		st, _ := s.Job(id)
		if st.State == state {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: state %s (%s), want %s", id, st.State, st.Error, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// An exploration probe whose derived spec a queued job already leads
// rides that job's computation: it waits, and once the job completes
// the probe is an explore hit, not a second compute.
func TestExplorationProbeRidesInFlightJob(t *testing.T) {
	expl := tinyExploration("svc-ride-job")
	spec, key := caseZeroSpec(t, expl)

	// Not started yet: the blocker and the exploration take the two
	// workers, so the case-0 job stays queued, holding its claim, until
	// the blocker is canceled.
	s := New(Config{JobWorkers: 2})
	defer cancelAndDrain(s)
	blocker, err := s.Submit([]byte(`{"name": "svc-ride-blocker", "workload": "fib24",
		"storage": {"c": "10u"}, "source": {"name": "dc"}, "duration": 600}`))
	if err != nil {
		t.Fatal(err)
	}
	est, err := s.SubmitExploration([]byte(expl))
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	awaitRider(t, s, key)
	awaitState(t, s, blocker.ID, JobRunning)
	s.Cancel(blocker.ID)

	if fin := awaitState(t, s, job.ID, JobDone); fin.Source != SourceCompute {
		t.Errorf("case-0 job: source %q, want compute", fin.Source)
	}
	awaitState(t, s, est.ID, JobDone)
	m := s.Metrics()
	if m.ExploreProbes != 3 || m.ExploreCacheHits != 1 || m.ExploreCacheMisses != 2 {
		t.Errorf("probes/hits/misses = %d/%d/%d, want 3/1/2 (case 0 rode the job)",
			m.ExploreProbes, m.ExploreCacheHits, m.ExploreCacheMisses)
	}
}

// When the job a probe rides is canceled, the probe was not: it claims
// the key again and computes it itself.
func TestExplorationProbeReleadsWhenRiddenJobCanceled(t *testing.T) {
	expl := tinyExploration("svc-ride-cancel")
	spec, key := caseZeroSpec(t, expl)

	// One worker: the exploration runs first and the case-0 job waits
	// behind it in the queue, so the probe rides a job that cannot run.
	s := New(Config{JobWorkers: 1})
	defer cancelAndDrain(s)
	est, err := s.SubmitExploration([]byte(expl))
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	awaitRider(t, s, key)
	if st, _ := s.Cancel(job.ID); st.State != JobCanceled {
		t.Fatalf("queued case-0 job: state %s after cancel", st.State)
	}
	awaitState(t, s, est.ID, JobDone)
	m := s.Metrics()
	if m.ExploreProbes != 3 || m.ExploreCacheHits != 0 || m.ExploreCacheMisses != 3 {
		t.Errorf("probes/hits/misses = %d/%d/%d, want 3/0/3 (case 0 re-led)",
			m.ExploreProbes, m.ExploreCacheHits, m.ExploreCacheMisses)
	}
	if e, ok := s.cache.Probe(key); !ok || e.Report == nil {
		t.Error("the re-led probe did not complete the case-0 entry")
	}
}

// A follower canceled while it waits ends canceled and lets go of the
// entry; its leader still runs to done, and no phantom hit is counted.
func TestFollowerCanceledWhileWaiting(t *testing.T) {
	s := New(Config{})
	spec := []byte(tinySpec("svc-follower-cancel"))
	lead, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fol, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Cancel(fol.ID); st.State != JobCanceled {
		t.Fatalf("follower: state %s after cancel", st.State)
	}
	key := CacheKey(lead.Hash)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if e, _ := s.cache.Probe(key); s.cache.Riders(e) == 0 {
			break // the follower released its ride
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled follower never released its ride")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Start()
	s.Drain()

	if st, _ := s.Job(lead.ID); st.State != JobDone {
		t.Errorf("leader: state %s (%s), want done", st.State, st.Error)
	}
	if st, _ := s.Job(fol.ID); st.State != JobCanceled {
		t.Errorf("follower: state %s, want canceled", st.State)
	}
	if m := s.Metrics(); m.CacheHits != 0 || m.JobsDone != 1 || m.JobsCanceled != 1 {
		t.Errorf("hits/done/canceled = %d/%d/%d, want 0/1/1", m.CacheHits, m.JobsDone, m.JobsCanceled)
	}
}

// A follower of a leader that checkpoints on Drain ends checkpointed
// too: resubmitting after the restart resumes the leader's state.
func TestFollowerOfCheckpointedLeader(t *testing.T) {
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Checkpoints: store}).Start()
	lead, err := s.Submit([]byte(ckptSpec))
	if err != nil {
		t.Fatal(err)
	}
	fol, err := s.Submit([]byte(ckptSpec))
	if err != nil {
		t.Fatal(err)
	}
	if fol.Source != SourceCache || !fol.Cached {
		t.Fatalf("second submission: %+v, want a single-flight follower", fol)
	}
	s.Drain()

	if st, _ := s.Job(lead.ID); st.State != JobCheckpointed {
		t.Fatalf("leader: state %s (%s), want checkpointed", st.State, st.Error)
	}
	st, _ := s.Job(fol.ID)
	if st.State != JobCheckpointed || st.Error == "" {
		t.Errorf("follower: state %s error %q, want checkpointed with a reason", st.State, st.Error)
	}
	if m := s.Metrics(); m.CheckpointsSaved != 1 || m.JobsDone != 0 || m.CacheHits != 0 {
		t.Errorf("saved/done/hits = %d/%d/%d, want 1/0/0", m.CheckpointsSaved, m.JobsDone, m.CacheHits)
	}
}
