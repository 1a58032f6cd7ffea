package service

import (
	"errors"
	"fmt"

	"repro/internal/explore"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// KindExploration is JobStatus.Kind for exploration jobs; scenario jobs
// leave Kind empty.
const KindExploration = "exploration"

// SubmitExploration parses, validates, and queues one exploration spec
// as a job. Exploration jobs share the queue, worker pool, polling,
// cancellation, and /result surface with scenario jobs, but are not
// themselves cached: the unit of caching is each probed case, keyed by
// its derived spec's content address, so re-running an exploration —
// or running a different exploration over overlapping design points —
// rides the memory→disk→peer tiers probe by probe.
//
// Submission errors: spec errors (reject with 400), ErrQueueFull (429),
// ErrDraining (503).
func (s *Server) SubmitExploration(specJSON []byte) (JobStatus, error) {
	es, err := explore.Parse(specJSON)
	if err != nil {
		return JobStatus{}, err
	}
	hash, err := es.Hash()
	if err != nil {
		return JobStatus{}, err
	}
	j := &job{expl: es, hash: hash}
	return s.register(j, func() error { return s.enqueueLocked(j) })
}

// runExploration executes one exploration job on a queue worker. The
// strategy and rendering run in internal/explore — the same code path
// as ehsim-explore — so the /result body is byte-identical to the CLI
// for the same spec; only the evaluator differs, and it differs only in
// where metrics come from (the tiered cache), never in what they are.
func (s *Server) runExploration(j *job) {
	rep, err := explore.Run(j.expl, explore.Options{
		Workers: s.cfg.SweepWorkers,
		Cancel:  j.cancel,
		Evaluate: func(sp *scenario.Spec) (explore.Outcome, error) {
			return s.evaluateProbe(j, sp)
		},
		Progress: func(done, total int) {
			s.mu.Lock()
			j.done, j.total = done, total
			s.mu.Unlock()
		},
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case errors.Is(err, sweep.ErrCanceled):
		s.endLocked(j, JobCanceled, "")
	case err != nil:
		s.endLocked(j, JobFailed, err.Error())
	default:
		j.state = JobDone
		j.source = SourceCompute
		// The exploration's report rides the scenario report type so the
		// /result endpoint (and job-record memory bounds) need no second
		// code path. SimSeconds counts only work actually computed here —
		// lead already fed the server's sim seconds per computed probe.
		j.report = &scenario.ModelReport{Text: rep.Text, SimSeconds: rep.SimSeconds}
		if j.total > 0 {
			j.done = j.total
		}
		s.counts.JobsDone++
		s.counts.ExplorationsDone++
		s.markFinishedLocked(j)
	}
}

// evaluateProbe resolves one derived case for an exploration through
// the full cache hierarchy: memory (including riding another job's or
// exploration's in-flight computation), then — through lead, as jobs
// do — disk CAS, the owning peer, and local compute. Probes are
// computed exactly as single-run jobs are — trace captured, same
// sampling interval — so a cache entry is indistinguishable whether a
// job or an exploration put it there, and either consumer can serve
// from it.
func (s *Server) evaluateProbe(j *job, sp *scenario.Spec) (explore.Outcome, error) {
	hash, err := sp.Hash()
	if err != nil {
		return explore.Outcome{}, err
	}
	key := CacheKey(hash)

	for {
		// Begin under s.mu, like Submit: claims are ordered against job
		// submissions, so a probe and an identical spec's job dedup onto
		// one computation no matter which arrives first.
		s.mu.Lock()
		entry, claim := s.cache.Begin(key)
		if claim == Done {
			s.countProbeLocked(true)
		}
		s.mu.Unlock()

		switch claim {
		case Done:
			return probeOutcome(entry.Report)

		case Wait:
			select {
			case <-entry.Done:
			case <-j.cancel:
				s.cache.Release(entry)
				return explore.Outcome{}, sweep.ErrCanceled
			}
			leadErr := entry.Err
			s.cache.Release(entry)
			if leadErr == nil {
				s.mu.Lock()
				s.countProbeLocked(true)
				s.mu.Unlock()
				return probeOutcome(entry.Report)
			}
			if errors.Is(leadErr, sweep.ErrCanceled) {
				continue // the leader we rode was canceled, not us: reclaim
			}
			return explore.Outcome{}, leadErr
		}

		rep, src, err := s.lead(key, hash, j.cancel, func() (*scenario.ModelReport, error) {
			return scenario.RunModel(sp, scenario.RunOptions{
				Workers:       s.cfg.SweepWorkers,
				Trace:         true,
				TraceInterval: traceInterval(float64(sp.Duration)),
				Cancel:        j.cancel,
			})
		}, func(_ *scenario.ModelReport, src string, err error) {
			if err == nil {
				s.countProbeLocked(src != SourceCompute)
			}
		})
		if err != nil {
			return explore.Outcome{}, err
		}
		out, err := probeOutcome(rep)
		if err == nil && src == SourceCompute {
			out.SimSeconds = rep.SimSeconds
		}
		return out, err
	}
}

// countProbeLocked counts one resolved probe: a hit if a cache tier
// served it, a miss if it was computed here. Callers hold s.mu.
func (s *Server) countProbeLocked(hit bool) {
	s.counts.ExploreProbes++
	if hit {
		s.counts.ExploreCacheHits++
	} else {
		s.counts.ExploreCacheMisses++
	}
}

// probeOutcome extracts a cached or computed report's metrics for the
// explorer. Probes are sweep-free by construction, so the report holds
// exactly one case. SimSeconds is left zero: a served report did no new
// work (the computing path overrides it).
func probeOutcome(rep *scenario.ModelReport) (explore.Outcome, error) {
	if len(rep.Cases) != 1 {
		return explore.Outcome{}, fmt.Errorf("service: probe resolved to %d cases, want 1", len(rep.Cases))
	}
	return explore.Outcome{Metrics: rep.Cases[0].Metrics}, nil
}
