package service

import (
	"sync"

	"repro/internal/scenario"
)

// Claim is the caller's role after Cache.Begin.
type Claim int

const (
	// Lead: the key was absent; the caller owns the computation and must
	// finish it with Complete or Abort.
	Lead Claim = iota
	// Wait: another caller is computing the key; wait on Entry.Done,
	// then release the ride with Release.
	Wait
	// Done: the key is already computed; Entry.Report is ready.
	Done
)

// Entry is one cache slot. Report and Err are immutable once Done is
// closed; waiters must not read them before.
type Entry struct {
	// Done is closed when the computation completes or aborts.
	Done chan struct{}

	// Report is the computed result (nil after Abort).
	Report *scenario.ModelReport

	// Err is the abort reason (nil after Complete).
	Err error

	// riders counts single-flight followers still resolving against this
	// entry (claimed Wait, not yet Released). Guarded by Cache.mu. An
	// entry with riders is exempt from cap eviction, and the job layer
	// keeps the leader's record pollable while riders remain.
	riders int
}

// Cache is the content-addressed result store: keys are canonical spec
// hashes mixed with the engine version, values are completed reports.
// It is single-flight — concurrent Begins for one key elect exactly one
// leader, and everyone else waits for that computation instead of
// duplicating it. Aborted computations are evicted, so a failed or
// canceled run never poisons the key: the next Begin leads again.
//
// Completed entries are bounded: beyond the cap the oldest-completed
// entry is evicted, so a long-running daemon's memory stays bounded.
// In-flight entries, and completed entries that still have riders (a
// follower between its leader's completion and its own resolution), are
// never evicted — eviction skips them and takes the next-oldest
// completed entry instead.
type Cache struct {
	mu        sync.Mutex
	cap       int
	entries   map[string]*Entry
	doneOrder []string // keys in completion order, oldest first
}

// NewCache returns an empty cache retaining at most cap completed
// entries (≤0 = unbounded).
func NewCache(cap int) *Cache {
	return &Cache{cap: cap, entries: make(map[string]*Entry)}
}

// Begin claims the key. The returned Entry is shared among everyone who
// asked for this key; the Claim tells the caller its role. A Wait claim
// registers the caller as a rider — it must call Release once it has
// read the entry's outcome.
func (c *Cache) Begin(key string) (*Entry, Claim) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.Done:
			return e, Done
		default:
			e.riders++
			return e, Wait
		}
	}
	e := &Entry{Done: make(chan struct{})}
	c.entries[key] = e
	return e, Lead
}

// Probe returns the key's entry without claiming anything: no leader
// election, no rider registration. Callers may wait on Entry.Done but
// must not mutate the entry. It is the peer-lookup read path.
func (c *Cache) Probe(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e, ok
}

// Release ends a Wait claim's ride on e, making the entry evictable
// again once no riders remain.
func (c *Cache) Release(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.riders > 0 {
		e.riders--
	}
}

// Riders reports e's current rider count.
func (c *Cache) Riders(e *Entry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return e.riders
}

// Complete publishes the leader's report and releases all waiters,
// evicting the oldest completed riderless entry if the cap is exceeded.
func (c *Cache) Complete(key string, rep *scenario.ModelReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return
	}
	select {
	case <-e.Done:
		return // already completed (e.g. adopted from a peer push)
	default:
	}
	e.Report = rep
	close(e.Done)
	c.doneOrder = append(c.doneOrder, key)
	c.evictLocked()
}

// AdoptCompleted inserts an externally computed report under key — the
// peer-push ingest path. The key must be absent: an in-flight local
// computation keeps its leader (the push is dropped, reported false),
// and a completed entry is left as is.
func (c *Cache) AdoptCompleted(key string, rep *scenario.ModelReport) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	e := &Entry{Done: make(chan struct{}), Report: rep}
	close(e.Done)
	c.entries[key] = e
	c.doneOrder = append(c.doneOrder, key)
	c.evictLocked()
	return true
}

// evictLocked enforces the completed-entry cap, oldest first, skipping
// entries that still have riders. It stops at the last eviction it
// needs and keeps the rest of the order as it is, so a completion past
// the cap costs a walk to the oldest riderless entry, not the whole
// history. Callers hold c.mu.
func (c *Cache) evictLocked() {
	if c.cap <= 0 {
		return
	}
	over := len(c.doneOrder) - c.cap
	if over <= 0 {
		return
	}
	last := len(c.doneOrder) - 1
	keep := c.doneOrder[:0]
	i := 0
	for ; i < len(c.doneOrder) && over > 0; i++ {
		key := c.doneOrder[i]
		if i != last {
			e, ok := c.entries[key]
			if !ok {
				over-- // stale order slot (key already replaced); drop it
				continue
			}
			if e.riders == 0 {
				delete(c.entries, key)
				over--
				continue
			}
		}
		keep = append(keep, key)
	}
	c.doneOrder = append(keep, c.doneOrder[i:]...)
}

// Abort evicts the in-flight key and releases its waiters with err.
func (c *Cache) Abort(key string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return
	}
	select {
	case <-e.Done:
		return // already completed; nothing to abort
	default:
	}
	e.Err = err
	close(e.Done)
	delete(c.entries, key)
}

// Len returns the number of resident entries (completed and in-flight).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
