// Package sweep is the lab's parallel experiment engine: it fans a set of
// independent simulation cases out over a worker pool and collects their
// results deterministically — ordered by case index, independent of
// goroutine scheduling or GOMAXPROCS.
//
// Every reproduction in this repo is a sweep of some parameter — storage
// capacitance (eq. 3), threshold margin (eq. 4), outage frequency (eq. 5),
// runtime policy, duty cycle — and every case is an isolated, deterministic
// simulation, so the whole experiment suite is embarrassingly parallel.
// The engine has three pieces:
//
//   - Case: one unit of work, carrying its index, a human-readable name
//     and (for grid sweeps) its parameter values.
//   - Grid: a declarative cross product over named parameter axes that
//     expands into cases in a fixed row-major order.
//   - Runner: the worker pool. Map and MapCases drive a Runner
//     over cases and return results indexed exactly like the input.
//
// The engine is generic over the per-case result type and knows nothing
// of the lab: callers close over whatever they run — most often a
// scenario spec's case, built with Spec.At and stepped as its model's
// run. It has no cancellation of its own: a case that stops early
// returns an error, and the pool claims no new case after one fails.
//
// Determinism contract: fn is called once per case, cases may run in any
// order and concurrently, but results[i] always holds case i's output, and
// the error returned is always the error of the lowest-indexed failing
// case. A sweep therefore produces byte-identical output whether it runs
// on one worker or sixteen.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrCanceled reports a sweep, or any run, stopped by its caller before
// it finished.
var ErrCanceled = errors.New("sweep: canceled")

// Case identifies one unit of work in a sweep.
type Case struct {
	Index int    // position in the sweep, 0-based; results[Index] is this case's slot
	Name  string // human-readable label, e.g. "C=47µF/margin=1.10"

	// Values holds the grid coordinates when the case was expanded from a
	// Grid (nil for plain Map cases).
	Values map[string]any
}

// Runner is a worker pool configuration for sweeps. The zero value (and a
// nil *Runner) is ready to use: one worker per CPU, no progress reporting.
type Runner struct {
	// Workers is the pool size; ≤0 means GOMAXPROCS.
	Workers int

	// OnProgress, if non-nil, is called after each case completes with the
	// number done so far and the total. Calls are serialised and done is
	// strictly increasing, but the order in which specific cases finish is
	// scheduling-dependent — use it for progress bars, not bookkeeping.
	OnProgress func(done, total int)
}

// workers resolves the pool size.
func (r *Runner) workers(n int) int {
	w := 0
	if r != nil {
		w = r.Workers
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn over n cases on the runner's worker pool and returns the
// results in case-index order. r may be nil for defaults.
//
// If any case fails, Map waits for in-flight cases, skips cases not yet
// started, and returns a nil slice and the error of the lowest-indexed
// failing case (which is deterministic: cases are claimed in index order,
// so the lowest-indexed failure always runs to completion), prefixed
// with the case's name; errors.Unwrap returns fn's error itself.
func Map[T any](r *Runner, n int, fn func(c Case) (T, error)) ([]T, error) {
	cases := make([]Case, n)
	for i := range cases {
		cases[i] = Case{Index: i, Name: fmt.Sprintf("case %d", i)}
	}
	return mapCases(r, cases, fn)
}

// MapCases runs fn over an explicit case slice — cases that were already
// expanded (and possibly partitioned) by the caller, e.g. a checkpointing
// driver resuming a sweep from the first incomplete wave. results[i]
// corresponds to cases[i]; the cases keep their original names, so error
// attribution is unchanged.
func MapCases[T any](r *Runner, cases []Case, fn func(c Case) (T, error)) ([]T, error) {
	return mapCases(r, cases, fn)
}

// mapCases is the engine core: an index-claiming worker pool with
// index-ordered collection and lowest-index error selection.
func mapCases[T any](r *Runner, cases []Case, fn func(c Case) (T, error)) ([]T, error) {
	n := len(cases)
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	errs := make([]error, n)

	var (
		next    atomic.Int64 // next unclaimed case index
		failed  atomic.Bool  // set on first failure: stop claiming new cases
		mu      sync.Mutex   // serialises OnProgress
		done    int
		wg      sync.WaitGroup
		workers = r.workers(n)
	)
	report := func() {
		if r == nil || r.OnProgress == nil {
			return
		}
		mu.Lock()
		done++
		r.OnProgress(done, n)
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				out, err := fn(cases[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
				} else {
					results[i] = out
				}
				report()
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", cases[i].Name, err)
		}
	}
	return results, nil
}
