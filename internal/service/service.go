// Package service is the simulation-as-a-service layer behind cmd/ehsimd:
// a job subsystem (submit/poll/cancel over a bounded queue with
// backpressure), a content-addressed single-flight result cache keyed by
// canonical spec hash plus engine version, and the REST surface that
// exposes both (http.go).
//
// The cache is tiered. Tier 1 is the in-memory single-flight Cache
// (cache.go). Tier 2, when configured, is a disk-backed CAS
// (internal/cas) written through on every computed result, so a daemon
// rebooted on the same cache directory serves prior results
// byte-identically without recomputing. Tier 3, when peers are
// configured, is the rest of the cluster: spec hashes are routed to an
// owning node by rendezvous hashing, and a leader whose spec belongs to
// a peer asks that peer's cache (bounded by a timeout) before falling
// back to computing locally (peer.go).
//
// Execution goes through scenario.RunModel — the same path the ehsim
// CLI prints from — so a job's result body is byte-identical to
// `ehsim -scenario` output for the same spec; the disk and peer tiers
// carry reports in internal/result's codec.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/explore"
	"repro/internal/result"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Submission errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull signals backpressure: the bounded queue is at capacity
	// (429 + Retry-After).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining signals shutdown: the server no longer accepts jobs (503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to run; submissions
	// beyond it are rejected with ErrQueueFull. Default 64.
	QueueDepth int

	// JobWorkers is the number of jobs executed concurrently once Start
	// runs. Default 2.
	JobWorkers int

	// SweepWorkers is the per-job sweep parallelism (0 = one per core).
	SweepWorkers int

	// CacheEntries bounds the completed reports the result cache
	// retains; beyond it the oldest-completed entry is evicted. Default
	// 256. In-flight computations are never evicted.
	CacheEntries int

	// JobHistory bounds the finished job records (done/failed/canceled)
	// retained for polling; beyond it the oldest finished records are
	// pruned and their ids return 404. Queued and running jobs are never
	// pruned. Default 256 — finished records can pin a report with a
	// trace, so the bound is also a memory bound.
	JobHistory int

	// CAS, if non-nil, is the disk-backed persistence tier: every
	// computed result is written through to it, and a memory-cache miss
	// consults it before computing. The Server owns lookups and
	// write-throughs but not the store's lifecycle.
	CAS *cas.Store

	// SelfURL is this node's advertised base URL (e.g.
	// "http://10.0.0.1:8080") — its identity on the rendezvous ring.
	// Required when Peers is non-empty, and it must be the URL the peers
	// reach this node at, or the ring views diverge.
	SelfURL string

	// Peers lists the other cluster nodes' base URLs. Non-empty enables
	// the federation tier: spec hashes are routed to an owner node by
	// rendezvous hashing over {SelfURL} ∪ Peers, leaders consult the
	// owner's cache before computing, and computed results owned by a
	// peer are pushed to it.
	Peers []string

	// PeerTimeout bounds each peer cache operation (lookup or push). A
	// peer that cannot answer in time is treated as a miss and the job
	// falls back to local compute. Default 2s.
	PeerTimeout time.Duration

	// Checkpoints, if non-nil, enables checkpoint-on-drain: Drain asks
	// every running job to suspend through the engine contract, the
	// suspended state is persisted here, and ResumeCheckpoints on the
	// next boot resubmits the work — which picks its state back up and
	// finishes byte-identical to an uninterrupted run.
	Checkpoints *CheckpointStore
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 64
	}
	return c.QueueDepth
}

func (c Config) jobWorkers() int {
	if c.JobWorkers <= 0 {
		return 2
	}
	return c.JobWorkers
}

func (c Config) cacheEntries() int {
	if c.CacheEntries <= 0 {
		return 256
	}
	return c.CacheEntries
}

func (c Config) jobHistory() int {
	if c.JobHistory <= 0 {
		return 256
	}
	return c.JobHistory
}

func (c Config) peerTimeout() time.Duration {
	if c.PeerTimeout <= 0 {
		return 2 * time.Second
	}
	return c.PeerTimeout
}

// CacheKey builds the cache/CAS key for a spec hash under the current
// engine version — the content address the whole tiered cache speaks.
func CacheKey(specHash string) string {
	return specHash + "|engine=" + result.EngineVersion
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
	// JobCheckpointed: the run was suspended by a draining server and its
	// state persisted; a resubmission after the next boot resumes it.
	JobCheckpointed JobState = "checkpointed"
)

// errCheckpointed marks a cache entry aborted because its leader
// checkpointed for shutdown rather than failing.
var errCheckpointed = errors.New("service: job checkpointed for shutdown")

// Result provenance values for JobStatus.Source.
const (
	SourceCompute = "compute" // executed on this node
	SourceCache   = "cache"   // in-memory cache hit or single-flight ride
	SourceDisk    = "disk"    // disk CAS hit
	SourcePeer    = "peer"    // fetched from the owning peer's cache
)

// job is the server-side record. All fields are guarded by Server.mu
// except cancel (closed at most once, guarded by the canceled flag under
// mu) and the identity fields, fixed once register has recorded the job.
type job struct {
	id   string
	spec *scenario.Spec // nil for exploration jobs
	expl *explore.Spec  // non-nil for exploration jobs (explore.go)
	hash string         // spec content address
	key  string         // cache key: hash + engine version (unused by explorations)

	state    JobState
	source   string // result provenance: set on completion, or at submission for a follower
	lead     bool   // owns the cache computation for key
	done     int    // progress: cases finished
	total    int    // progress: cases overall (0 until known)
	report   *scenario.ModelReport
	errText  string
	cancel   chan struct{}
	canceled bool   // cancel closed
	entry    *Entry // the cache entry this job resolved against
	finished chan struct{}
	ended    bool // finished closed
}

// JobStatus is the JSON-facing snapshot of one job.
type JobStatus struct {
	ID     string   `json:"id"`
	Kind   string   `json:"kind,omitempty"` // "exploration" for exploration jobs
	State  JobState `json:"state"`
	Spec   string   `json:"spec"`
	Hash   string   `json:"hash"`
	Sweep  bool     `json:"sweep"`
	Cached bool     `json:"cached"`
	Source string   `json:"source,omitempty"`
	Done   int      `json:"done"`
	Total  int      `json:"total"`
	Error  string   `json:"error,omitempty"`
}

func (j *job) status() JobStatus {
	st := JobStatus{
		ID:     j.id,
		State:  j.state,
		Hash:   j.hash,
		Cached: j.source != "" && j.source != SourceCompute, // served by a cache tier
		Source: j.source,
		Done:   j.done,
		Total:  j.total,
		Error:  j.errText,
	}
	if j.expl != nil {
		st.Kind = KindExploration
		st.Spec = j.expl.Name
	} else {
		st.Spec = j.spec.Name
		st.Sweep = j.spec.HasSweep()
	}
	return st
}

// Metrics is a point-in-time snapshot of the server's counters.
type Metrics struct {
	JobsQueued    int     // leader jobs holding queue slots
	JobsWaiting   int     // single-flight followers riding an in-flight computation
	JobsRunning   int     // jobs currently executing
	JobsDone      int64   // jobs completed successfully (cache hits included)
	JobsFailed    int64   // jobs that errored
	JobsCanceled  int64   // jobs canceled before completing
	CacheHits     int64   // submissions served by the memory cache (incl. dedup waits)
	CacheMisses   int64   // submissions that missed the memory cache
	CacheEntries  int     // resident memory-cache entries
	SimSeconds    float64 // total simulated seconds actually computed
	QueueDepth    int     // jobs currently pending in the queue
	QueueBound    int     // configured queue bound (Config.QueueDepth)
	QueueCapacity int     // free queue slots (bound − depth)

	// Disk tier (zero-valued when no CAS is configured).
	DiskHits        int64 // CAS reads served
	DiskMisses      int64 // CAS reads that found nothing servable
	DiskEntries     int   // resident CAS blobs
	DiskBytes       int64 // resident CAS bytes
	DiskEvictions   int64 // CAS blobs evicted by the byte budget
	DiskCorrupt     int64 // CAS blobs dropped for checksum/framing failures
	DiskWriteErrors int64 // CAS writes that failed

	// Peer tier (zero-valued when no peers are configured).
	PeerHits   int64 // jobs served from a peer's cache
	PeerMisses int64 // peer lookups answered "not cached"
	PeerErrors int64 // peer operations that failed (down, slow, bad body)
	PeerPushes int64 // computed results pushed to their owning peer

	// Exploration subsystem (explore.go). Probes are the per-case
	// evaluations an exploration strategy requested; each resolves
	// either from a cache tier (hit — memory, single-flight ride, disk,
	// or peer) or by computing locally (miss), so a repeated exploration
	// shows pure hit growth here.
	ExplorationsDone   int64 // exploration jobs completed successfully
	ExploreProbes      int64 // probes resolved (hits + misses)
	ExploreCacheHits   int64 // probes served without computing
	ExploreCacheMisses int64 // probes computed on this node

	// Checkpoint subsystem (zero-valued when no store is configured).
	CheckpointsSaved   int64 // running jobs suspended and persisted at drain
	CheckpointsResumed int64 // jobs completed from a persisted checkpoint
	CheckpointsPending int   // records awaiting resume in the store
}

// HitRatio returns hits/(hits+misses), or 0 before any submission.
func (m Metrics) HitRatio() float64 {
	total := m.CacheHits + m.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(total)
}

// Server is the daemon core: job registry, bounded queue, worker pool,
// and tiered result cache. Construct with New, launch the workers with
// Start, stop with Drain.
type Server struct {
	cfg   Config
	cache *Cache
	specs *specMemo // parsed submissions, keyed by their bytes (specmemo.go)
	peers *peerSet  // nil when no peers are configured

	mu       sync.Mutex
	cond     *sync.Cond // wakes workers; tied to mu
	jobs     map[string]*job
	order    []string // submission order, for listing
	nextID   int
	pending  []*job // FIFO of leader jobs awaiting a worker
	draining bool

	// counts holds every counter Metrics reports; its gauge fields stay
	// zero here and are filled in by Metrics.
	counts Metrics

	// ckptReq is closed by Drain when a checkpoint store is configured —
	// the server-wide "suspend now" signal every running job's engine
	// driver watches.
	ckptReq    chan struct{}
	ckptClosed bool

	started  bool
	workerWG sync.WaitGroup // queue workers
	followWG sync.WaitGroup // single-flight followers
}

// New builds a Server. No goroutines run until Start.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.cacheEntries()),
		specs:   newSpecMemo(cfg.jobHistory()),
		jobs:    make(map[string]*job),
		ckptReq: make(chan struct{}),
	}
	if len(cfg.Peers) > 0 {
		s.peers = newPeerSet(cfg.SelfURL, cfg.Peers, cfg.peerTimeout())
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// ResultCache exposes the in-memory cache tier — read/introspection
// surface for the peer endpoints and the test harness.
func (s *Server) ResultCache() *Cache { return s.cache }

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() *Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return s
	}
	s.started = true
	for i := 0; i < s.cfg.jobWorkers(); i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// Drain gracefully shuts the job subsystem down: new submissions are
// rejected with ErrDraining, already-accepted jobs (queued and running)
// run to completion, and Drain returns once every worker and follower
// has exited. With a checkpoint store configured, running jobs are
// instead asked to suspend: each engine checkpoints at its next step
// boundary, the state is persisted, and ResumeCheckpoints on the next
// boot picks the work back up.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.cond.Broadcast()
	}
	if s.cfg.Checkpoints != nil && !s.ckptClosed {
		s.ckptClosed = true
		close(s.ckptReq)
	}
	s.mu.Unlock()
	s.workerWG.Wait()
	s.followWG.Wait()
}

// Submit parses, validates, and accepts one scenario spec; bytes it has
// parsed before are not parsed again (specMemo). The returned status is
// the job's initial state: "done" immediately on a memory cache hit,
// "queued" otherwise. Submission errors: spec errors (reject with 400),
// ErrQueueFull (429), ErrDraining (503).
func (s *Server) Submit(specJSON []byte) (JobStatus, error) {
	sp, hash, err := s.specs.parse(specJSON)
	if err != nil {
		return JobStatus{}, err
	}
	// scenario.Validate bounds the sweep (MaxSweepPoints, MaxGridCases),
	// so the expansion size here is small and safe to compute.
	total := 1
	if sp.HasSweep() {
		total = sp.Grid().Size()
	}
	j := &job{spec: sp, hash: hash, key: CacheKey(hash), total: total}
	return s.register(j, func() error {
		// All cache.Begin calls happen under s.mu, so a Lead claim aborted
		// before this function returns can have no waiters yet.
		entry, claim := s.cache.Begin(j.key)
		j.entry = entry
		switch claim {
		case Done:
			s.counts.CacheHits++
			s.doneLocked(j, entry.Report, SourceCache)
		case Wait:
			// Followers ride the in-flight computation instead of the queue,
			// so an identical spec is accepted even when the queue is full —
			// but a retry storm must not grow follower goroutines without
			// limit, so they get their own bound, independent of how
			// saturated the queue and workers are.
			if s.followersLocked() >= s.cfg.queueDepth() {
				s.cache.Release(entry) // undo the ride Begin registered
				return ErrQueueFull
			}
			// CacheHits is counted in follow() once the ride succeeds — a
			// canceled or failed leader must not register phantom hits.
			j.source = SourceCache
			s.followWG.Add(1)
			go s.follow(j, entry)
		case Lead:
			j.lead = true
			if err := s.enqueueLocked(j); err != nil {
				s.cache.Abort(j.key, err)
				return err
			}
			s.counts.CacheMisses++
		}
		return nil
	})
}

// register admits a new job: it refuses while draining, lets admit
// place the job (a cache claim, a queue slot) or refuse it, and then
// gives the job its id and records it for polling. admit runs under
// s.mu.
func (s *Server) register(j *job, admit func() error) (JobStatus, error) {
	j.state = JobQueued
	j.cancel = make(chan struct{})
	j.finished = make(chan struct{})

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	if err := admit(); err != nil {
		return JobStatus{}, err
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%06d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pruneJobsLocked()
	return j.status(), nil
}

// enqueueLocked gives j a slot in the bounded queue and wakes a worker,
// or reports ErrQueueFull. Callers hold s.mu.
func (s *Server) enqueueLocked(j *job) error {
	if len(s.pending) >= s.cfg.queueDepth() {
		return ErrQueueFull
	}
	s.pending = append(s.pending, j)
	s.cond.Signal()
	return nil
}

// SubmitWait behaves like Submit but, instead of failing fast on a full
// queue, waits for a slot until ctx is done. It is the batch endpoint's
// intake: a batch client asked for N specs in one round trip, so
// backpressure should pace the stream, not reject its tail.
func (s *Server) SubmitWait(ctx context.Context, specJSON []byte) (JobStatus, error) {
	for {
		st, err := s.Submit(specJSON)
		if !errors.Is(err, ErrQueueFull) {
			return st, err
		}
		select {
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// WaitJob blocks until the job reaches a terminal state (done, failed,
// canceled) or ctx is done, and returns its final status. ok is false
// for unknown ids.
func (s *Server) WaitJob(ctx context.Context, id string) (JobStatus, bool, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, false, nil
	}
	fin := j.finished
	s.mu.Unlock()
	select {
	case <-fin:
	case <-ctx.Done():
		return JobStatus{}, true, ctx.Err()
	}
	st, _ := s.Job(id)
	return st, true, nil
}

// markFinishedLocked closes the job's finished channel exactly once.
// Callers hold s.mu and have already moved the job to a terminal state.
func (s *Server) markFinishedLocked(j *job) {
	if !j.ended {
		j.ended = true
		close(j.finished)
	}
}

// doneLocked publishes rep as j's result, served from src. Callers hold
// s.mu.
func (s *Server) doneLocked(j *job, rep *scenario.ModelReport, src string) {
	j.state = JobDone
	j.source = src
	j.report = rep
	j.done, j.total = len(rep.Cases), len(rep.Cases)
	s.counts.JobsDone++
	s.markFinishedLocked(j)
}

// endLocked moves j to a terminal state other than done, with an
// optional reason, and counts it. Callers hold s.mu.
func (s *Server) endLocked(j *job, state JobState, reason string) {
	j.state = state
	j.errText = reason
	switch state {
	case JobCanceled:
		s.counts.JobsCanceled++
	case JobFailed:
		s.counts.JobsFailed++
	}
	s.markFinishedLocked(j)
}

// followersLocked counts single-flight followers: non-leader jobs still
// waiting on their leader's computation. (Exploration jobs hold queue
// slots themselves and are never followers.) Callers hold s.mu.
func (s *Server) followersLocked() int {
	n := 0
	for _, j := range s.jobs {
		if !j.lead && j.expl == nil && j.state == JobQueued {
			n++
		}
	}
	return n
}

// pruneJobsLocked drops the oldest finished job records once the
// registry exceeds the configured history bound. Never pruned: queued
// and running jobs (single-flight waiters stay queued), the newest
// record — Submit calls this right after registering a job that may
// already be finished (cache hit), and the id it is about to return
// must stay pollable — and finished jobs whose cache entry still has
// active riders: a follower resolving against that entry must find the
// leader's world intact, not a vanished record. The scan stops at the
// last record it needs to drop. Callers hold s.mu.
func (s *Server) pruneJobsLocked() {
	excess := len(s.order) - s.cfg.jobHistory()
	if excess <= 0 {
		return
	}
	last := len(s.order) - 1
	keep := s.order[:0]
	i := 0
	for ; i < len(s.order) && excess > 0; i++ {
		id := s.order[i]
		j := s.jobs[id]
		if i != last &&
			(j.state == JobDone || j.state == JobFailed || j.state == JobCanceled) &&
			(j.entry == nil || s.cache.Riders(j.entry) == 0) {
			delete(s.jobs, id)
			excess--
			continue
		}
		keep = append(keep, id)
	}
	s.order = append(keep, s.order[i:]...)
}

// follow resolves a deduplicated job once its leader's computation
// finishes (or its own cancellation arrives first).
func (s *Server) follow(j *job, e *Entry) {
	defer s.followWG.Done()
	select {
	case <-e.Done:
	case <-j.cancel:
		// Cancel already moved the state under s.mu; the job stays
		// canceled even if the entry completes a moment later.
		s.cache.Release(e)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.cache.Release(e)
	if j.state != JobQueued {
		return // canceled while waiting
	}
	switch {
	case e.Err == nil:
		s.counts.CacheHits++
		s.doneLocked(j, e.Report, SourceCache)
	case errors.Is(e.Err, errCheckpointed):
		s.endLocked(j, JobCheckpointed, "deduplicated onto a job that checkpointed for shutdown; resubmit after restart")
	case errors.Is(e.Err, sweep.ErrCanceled):
		s.endLocked(j, JobCanceled, "deduplicated onto a job that was canceled; resubmit to recompute")
	default:
		s.endLocked(j, JobFailed, e.Err.Error())
	}
}

// worker pops pending jobs until the queue is empty and Drain has been
// requested. A job is marked running as it is popped, under the same
// lock: Cancel removes a queued job from the queue, so every popped job
// is still queued and none can be canceled in between.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.draining {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock() // draining, nothing left
			return
		}
		j := s.pending[0]
		s.pending = s.pending[1:]
		j.state = JobRunning
		s.mu.Unlock()
		if j.expl != nil {
			s.runExploration(j)
		} else {
			s.runJob(j)
		}
	}
}

// lead resolves a cache key its caller leads — the one tier walk jobs
// and exploration probes share. It tries the cold tiers (disk, then the
// owning peer) and otherwise runs compute; a report that did not come
// from this node's disk is written through to it before anyone can see
// it, so a crash cannot lose the only copy. Then, in one critical
// section, it completes or aborts the entry, counts computed sim
// seconds, and calls publish so the caller's own record appears
// together with the entry; publish runs under s.mu, so it only updates
// records and counters. Last, a computed report is pushed to its owning
// peer. The report is encoded once, for the write-through and the push
// alike, and only if one of them needs it. It returns what publish saw;
// src is SourceCompute whenever compute ran. Callers must not hold
// s.mu: the tiers and compute run off it.
func (s *Server) lead(key, hash string, cancel <-chan struct{}, compute func() (*scenario.ModelReport, error),
	publish func(rep *scenario.ModelReport, src string, err error)) (*scenario.ModelReport, string, error) {
	rep, src, err := s.fetchCold(key, hash, cancel)
	if rep == nil && err == nil {
		src = SourceCompute
		rep, err = compute()
	}
	var data []byte // rep's encoding, kept for the push
	if err == nil && src != SourceDisk && s.cfg.CAS != nil {
		var encErr error
		if data, encErr = result.EncodeReport(rep); encErr == nil {
			s.cfg.CAS.Put(key, data) // failures are counted in the store's stats
		}
	}

	s.mu.Lock()
	if err != nil {
		s.cache.Abort(key, err)
	} else {
		s.cache.Complete(key, rep)
		if src == SourceCompute {
			s.counts.SimSeconds += rep.SimSeconds
		}
	}
	publish(rep, src, err)
	s.mu.Unlock()

	// Replicate to the owning peer (best-effort, bounded by the peer
	// timeout) so the ring converges: the next lookup for this hash on
	// any node finds it at its owner.
	if err == nil && src == SourceCompute {
		s.pushToOwner(hash, rep, data)
	}
	return rep, src, err
}

// runJob executes one leader job through lead and publishes its outcome
// to the job record.
func (s *Server) runJob(j *job) {
	var resumed bool
	compute := func() (*scenario.ModelReport, error) {
		rep, res, err := s.execute(j)
		resumed = res
		// A checkpoint interruption persists the engine state before the
		// job is published as checkpointed (still off s.mu — disk I/O):
		// once visible, the state must actually be on disk for the next
		// boot. A persist failure degrades to a job failure.
		var ckptErr *scenario.CheckpointError
		if errors.As(err, &ckptErr) {
			if err = s.saveCheckpoint(j, ckptErr.State); err == nil {
				return nil, errCheckpointed
			}
		}
		// A run that finished (or definitively failed or was canceled) has
		// consumed any checkpoint it resumed from.
		s.cfg.Checkpoints.Delete(j.key)
		return rep, err
	}
	_, src, _ := s.lead(j.key, j.hash, j.cancel, compute, func(rep *scenario.ModelReport, src string, err error) {
		switch {
		case errors.Is(err, errCheckpointed):
			s.counts.CheckpointsSaved++
			s.endLocked(j, JobCheckpointed, "checkpointed for shutdown; resumes on next boot")
		case errors.Is(err, sweep.ErrCanceled):
			s.endLocked(j, JobCanceled, "")
		case err != nil:
			s.endLocked(j, JobFailed, err.Error())
		default:
			if resumed {
				s.counts.CheckpointsResumed++
			}
			s.doneLocked(j, rep, src)
		}
	})
	if src != SourceCompute {
		// A served result supersedes any partial checkpoint for the key,
		// and a cancel that cut the lookup short ends the job for good.
		s.cfg.Checkpoints.Delete(j.key)
	}
}

// execute runs a leader job's spec — resuming from a persisted
// checkpoint when one exists, computing from scratch otherwise.
// resumed reports whether a checkpoint was consumed. Callers must not
// hold s.mu.
func (s *Server) execute(j *job) (rep *scenario.ModelReport, resumed bool, err error) {
	opts := scenario.RunOptions{
		Workers:       s.cfg.SweepWorkers,
		Trace:         !j.spec.HasSweep(),
		TraceInterval: traceInterval(float64(j.spec.Duration)),
		Cancel:        j.cancel,
		Progress: func(done, total int) {
			s.mu.Lock()
			j.done, j.total = done, total
			s.mu.Unlock()
		},
	}
	if st := s.cfg.Checkpoints; st != nil {
		opts.Checkpoint = s.ckptReq
		if rec, ok := st.Get(j.key); ok {
			rep, err = scenario.ResumeModel(j.spec, rec.State, opts)
			var ck *scenario.CheckpointError
			if err == nil || errors.Is(err, sweep.ErrCanceled) || errors.As(err, &ck) {
				return rep, true, err
			}
			// The persisted state is unusable (stale envelope, corrupt
			// blob): drop it and compute from scratch rather than failing
			// a job the engine can still run.
			st.Delete(j.key)
		}
	}
	rep, err = scenario.RunModel(j.spec, opts)
	return rep, false, err
}

// saveCheckpoint persists a suspended job's engine state keyed by its
// cache key, alongside the canonical spec the next boot resubmits.
// Callers must not hold s.mu.
func (s *Server) saveCheckpoint(j *job, state []byte) error {
	canon, err := j.spec.Canonical()
	if err != nil {
		return err
	}
	return s.cfg.Checkpoints.Put(j.key, canon, state)
}

// ResumeCheckpoints resubmits every job a previous process checkpointed
// on shutdown. Call it after Start (typically in its own goroutine —
// submissions pace themselves against the queue via SubmitWait); the
// resubmitted jobs find their persisted state through the normal
// execution path and finish byte-identical to uninterrupted runs. It
// returns the number of jobs resubmitted.
func (s *Server) ResumeCheckpoints(ctx context.Context) int {
	st := s.cfg.Checkpoints
	if st == nil {
		return 0
	}
	n := 0
	for _, rec := range st.List() {
		js, err := s.SubmitWait(ctx, rec.Spec)
		if err != nil {
			continue
		}
		n++
		if CacheKey(js.Hash) != rec.Key {
			// The record predates an engine-version bump: the fresh
			// submission runs under a new key, so the stale state can
			// never be consumed — drop it.
			st.Delete(rec.Key)
		}
	}
	return n
}

// pushToOwner replicates a computed report to the hash's owning peer,
// if that peer is not this node. data is the report's encoding if the
// CAS write-through made one, else nil and the report is encoded here.
// Best-effort, bounded by the peer timeout; callers must not hold s.mu.
func (s *Server) pushToOwner(hash string, rep *scenario.ModelReport, data []byte) {
	if s.peers == nil {
		return
	}
	owner := s.peers.owner(hash)
	if owner == s.peers.self {
		return
	}
	var err error
	if data == nil {
		data, err = result.EncodeReport(rep)
	}
	if err == nil {
		err = s.peers.push(owner, hash, data)
	}
	if err == nil {
		s.count(&s.counts.PeerPushes)
	} else {
		s.count(&s.counts.PeerErrors)
	}
}

// fetchCold consults the cold cache tiers for a led key: the disk CAS,
// then the owning peer. It returns a decoded report and its provenance,
// or a nil report to compute locally. A peer lookup cut short by the
// caller's own cancel is no peer fault: it counts nothing and returns
// sweep.ErrCanceled. Callers must not hold s.mu.
func (s *Server) fetchCold(key, hash string, cancel <-chan struct{}) (*scenario.ModelReport, string, error) {
	if s.cfg.CAS != nil {
		if data, ok := s.cfg.CAS.Get(key); ok {
			if rep, err := result.DecodeReport(data); err == nil {
				s.count(&s.counts.DiskHits)
				return rep, SourceDisk, nil
			}
		}
		// Absent, or undecodable despite a clean checksum (stale codec).
		s.count(&s.counts.DiskMisses)
	}
	if s.peers == nil {
		return nil, "", nil
	}
	owner := s.peers.owner(hash)
	if owner == s.peers.self {
		return nil, "", nil
	}
	rep, err := s.peers.lookup(owner, hash, cancel)
	switch {
	case rep != nil:
		s.count(&s.counts.PeerHits)
		return rep, SourcePeer, nil
	case err == nil:
		s.count(&s.counts.PeerMisses)
	default:
		select {
		case <-cancel:
			return nil, "", sweep.ErrCanceled
		default:
			s.count(&s.counts.PeerErrors)
		}
	}
	return nil, "", nil
}

// count adds one to a counter in s.counts under s.mu, for the tier code
// that runs off it.
func (s *Server) count(c *int64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// maxTraceSamples bounds a captured trace's length: the daemon records
// every single-run job's trace (so /trace is always servable and cache
// entries stay self-contained), and long simulated durations must not
// translate into unbounded trace memory. What a job retains is the
// columnar store — 16 bytes per sample per channel, so 20k samples on
// three channels ≈ 1 MB — and the CSV is rendered per /trace request,
// never held; the worst case across the cache and job-history bounds
// stays in the low hundreds of MB.
const maxTraceSamples = 20_000

// traceInterval picks the trace sampling interval for a run of the
// given simulated duration: the CLI-matching default, stretched so the
// trace never exceeds maxTraceSamples points per series. The recorder
// keeps samples at both ends of the run — up to duration/interval + 1
// of them — so the divisor is maxTraceSamples−1: stretching to exactly
// duration/maxTraceSamples would admit maxTraceSamples+1 points, one
// over the bound.
func traceInterval(duration float64) float64 {
	iv := scenario.DefaultTraceInterval
	if duration/iv > float64(maxTraceSamples-1) {
		iv = duration / float64(maxTraceSamples-1)
	}
	return iv
}

// Job returns a job's status snapshot.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Jobs lists every job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id].status()
	}
	return out
}

// Result returns a job's report alongside its status. The report is
// non-nil only in state "done".
func (s *Server) Result(id string) (*scenario.ModelReport, JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, false
	}
	return j.report, j.status(), true
}

// Cancel requests a job's cancellation. Queued jobs cancel immediately;
// running jobs stop promptly — the scenario driver, and a sweep's
// workers, check the cancel channel between chunks of a few thousand
// steps. A run that has already finished its last chunk may still
// complete as "done". Finished jobs are unaffected.
func (s *Server) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	switch j.state {
	case JobQueued:
		s.removePendingLocked(j) // free the queue slot immediately
		if j.lead {
			// Release any single-flight waiters and free the key so a
			// resubmission recomputes.
			s.cache.Abort(j.key, sweep.ErrCanceled)
		}
		s.closeCancelLocked(j)
		s.endLocked(j, JobCanceled, "")
	case JobRunning:
		s.closeCancelLocked(j) // the worker publishes the outcome
	}
	return j.status(), true
}

// removePendingLocked removes j from the pending queue, if present (a
// follower never holds a queue slot). Callers hold s.mu.
func (s *Server) removePendingLocked(j *job) {
	for i, p := range s.pending {
		if p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// closeCancelLocked closes j.cancel exactly once. Callers hold s.mu.
func (s *Server) closeCancelLocked(j *job) {
	if !j.canceled {
		j.canceled = true
		close(j.cancel)
	}
}

// Metrics snapshots the server counters and fills in the gauges.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	m := s.counts
	m.CacheEntries = s.cache.Len()
	for _, j := range s.jobs {
		if j.state == JobRunning {
			m.JobsRunning++
		}
	}
	// Only leaders occupy queue slots; followers are reported
	// separately so the queue gauges stay mutually consistent.
	m.JobsQueued = len(s.pending)
	m.JobsWaiting = s.followersLocked()
	m.QueueDepth = len(s.pending)
	m.QueueBound = s.cfg.queueDepth()
	m.QueueCapacity = m.QueueBound - m.QueueDepth
	s.mu.Unlock()

	// The CAS keeps its own counters; snapshot them outside s.mu (the
	// store has its own lock).
	if s.cfg.CAS != nil {
		st := s.cfg.CAS.Stats()
		m.DiskEntries = st.Entries
		m.DiskBytes = st.Bytes
		m.DiskEvictions = st.Evictions
		m.DiskCorrupt = st.Corrupt
		m.DiskWriteErrors = st.WriteErrors
	}
	if s.cfg.Checkpoints != nil {
		m.CheckpointsPending = s.cfg.Checkpoints.Len()
	}
	return m
}
