package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/scenario"
)

func TestCacheSingleFlightElectsOneLeader(t *testing.T) {
	c := NewCache(0)
	const n = 32
	var leaders atomic.Int32
	var wg sync.WaitGroup
	rep := &scenario.ModelReport{Text: "report"}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, claim := c.Begin("k")
			switch claim {
			case Lead:
				leaders.Add(1)
				c.Complete("k", rep)
			case Wait, Done:
				<-e.Done
				if e.Err != nil || e.Report != rep {
					t.Errorf("waiter got rep=%v err=%v", e.Report, e.Err)
				}
			}
		}()
	}
	wg.Wait()
	if leaders.Load() != 1 {
		t.Errorf("%d leaders elected, want exactly 1", leaders.Load())
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

func TestCacheCompletedKeyReturnsDone(t *testing.T) {
	c := NewCache(0)
	_, claim := c.Begin("k")
	if claim != Lead {
		t.Fatalf("first Begin = %v, want Lead", claim)
	}
	rep := &scenario.ModelReport{Text: "x"}
	c.Complete("k", rep)
	e, claim := c.Begin("k")
	if claim != Done || e.Report != rep {
		t.Errorf("after Complete: claim=%v report=%v", claim, e.Report)
	}
}

func TestCacheAbortEvictsAndReleasesWaiters(t *testing.T) {
	c := NewCache(0)
	if _, claim := c.Begin("k"); claim != Lead {
		t.Fatalf("claim = %v, want Lead", claim)
	}
	e, claim := c.Begin("k")
	if claim != Wait {
		t.Fatalf("claim = %v, want Wait", claim)
	}
	boom := errors.New("boom")
	c.Abort("k", boom)
	<-e.Done
	if !errors.Is(e.Err, boom) {
		t.Errorf("waiter err = %v, want boom", e.Err)
	}
	// The key is free again: the next Begin leads a fresh computation.
	if _, claim := c.Begin("k"); claim != Lead {
		t.Errorf("post-abort claim = %v, want Lead", claim)
	}
}

func TestCacheCapEvictsOldestCompleted(t *testing.T) {
	c := NewCache(2)
	rep := &scenario.ModelReport{Text: "r"}
	for _, k := range []string{"a", "b", "c"} {
		if _, claim := c.Begin(k); claim != Lead {
			t.Fatalf("%s: claim not Lead", k)
		}
		c.Complete(k, rep)
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
	if _, claim := c.Begin("a"); claim != Lead {
		t.Errorf("oldest key should have been evicted; claim = %v", claim)
	}
	if _, claim := c.Begin("c"); claim != Done {
		t.Errorf("newest key should survive; claim = %v", claim)
	}
}

func TestCacheCapSparesInFlight(t *testing.T) {
	c := NewCache(1)
	if _, claim := c.Begin("inflight"); claim != Lead {
		t.Fatal("claim not Lead")
	}
	rep := &scenario.ModelReport{Text: "r"}
	for _, k := range []string{"a", "b"} {
		c.Begin(k)
		c.Complete(k, rep)
	}
	// Only completed entries count against the cap; the in-flight leader
	// keeps its entry, so its waiters still resolve.
	if _, claim := c.Begin("inflight"); claim != Wait {
		t.Errorf("in-flight entry evicted; claim = %v", claim)
	}
}

func TestCacheDistinctKeysAreIndependent(t *testing.T) {
	c := NewCache(0)
	const n = 16
	var wg sync.WaitGroup
	claims := make([]Claim, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, claims[i] = c.Begin(string(rune('a' + i)))
		}(i)
	}
	wg.Wait()
	for i, cl := range claims {
		if cl != Lead {
			t.Errorf("key %d: claim = %v, want Lead", i, cl)
		}
	}
	if c.Len() != n {
		t.Errorf("cache holds %d entries, want %d", c.Len(), n)
	}
}

// Regression: completed-entry cap eviction used to go purely by
// completion order; an entry whose single-flight follower had not yet
// resolved could be evicted out from under it. Eviction must skip
// entries with active riders and take the next-oldest instead.
func TestCacheCapEvictionSkipsEntriesWithRiders(t *testing.T) {
	c := NewCache(2)
	rep := &scenario.ModelReport{Text: "r"}

	if _, claim := c.Begin("ridden"); claim != Lead {
		t.Fatal("claim not Lead")
	}
	e, claim := c.Begin("ridden")
	if claim != Wait {
		t.Fatalf("claim = %v, want Wait", claim)
	}
	c.Complete("ridden", rep)

	// Two younger completions push the cap; "ridden" is oldest but must
	// survive while its rider is unresolved. "b" pays instead.
	for _, k := range []string{"b", "c"} {
		c.Begin(k)
		c.Complete(k, rep)
	}
	if _, claim := c.Begin("ridden"); claim != Done {
		t.Fatalf("ridden entry evicted under an active rider; claim = %v", claim)
	}
	c.Release(e)
	if _, claim := c.Begin("b"); claim != Lead {
		t.Errorf("eviction should have taken the next-oldest riderless entry; b claim = %v", claim)
	}

	// Rider released: the entry is ordinary again and evictable.
	c.Complete("b", rep)
	c.Begin("d")
	c.Complete("d", rep)
	if _, claim := c.Begin("ridden"); claim != Lead {
		t.Errorf("released entry should eventually evict; claim = %v", claim)
	}
}

// Eviction stops at the last entry it needs to drop. What it has not
// scanned must stay in the completion order: a tail forgotten there is
// never evicted later, and the cache outgrows its cap.
func TestCacheEvictionKeepsTheUnscannedTail(t *testing.T) {
	c := NewCache(3)
	rep := &scenario.ModelReport{Text: "r"}
	c.Begin("k0")
	e, claim := c.Begin("k0")
	if claim != Wait {
		t.Fatalf("claim = %v, want Wait", claim)
	}
	c.Complete("k0", rep)
	complete := func(keys ...string) {
		for _, k := range keys {
			c.Begin(k)
			c.Complete(k, rep)
		}
	}
	resident := func(want ...string) {
		t.Helper()
		in := make(map[string]bool)
		for _, k := range want {
			in[k] = true
		}
		for i := 0; i <= 6; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, ok := c.Probe(k); ok != in[k] {
				t.Errorf("%s resident = %v, want %v", k, ok, in[k])
			}
		}
		if c.Len() != len(want) {
			t.Errorf("cache holds %d entries, want %d", c.Len(), len(want))
		}
	}

	// The ridden k0 is the oldest; each completion past the cap takes
	// the oldest riderless entry instead.
	complete("k1", "k2", "k3", "k4", "k5")
	resident("k0", "k4", "k5")
	// Released, k0 is the oldest riderless entry and goes next.
	c.Release(e)
	complete("k6")
	resident("k4", "k5", "k6")
}

// A follower that claimed Wait must observe the completed entry even if
// a burst of completions would otherwise evict it first — the vanished-
// entry regression this cache's rider accounting exists to prevent.
func TestFollowerNeverObservesVanishedEntry(t *testing.T) {
	c := NewCache(1)
	rep := &scenario.ModelReport{Text: "the follower's report"}
	if _, claim := c.Begin("k"); claim != Lead {
		t.Fatal("claim not Lead")
	}
	e, claim := c.Begin("k")
	if claim != Wait {
		t.Fatalf("claim = %v, want Wait", claim)
	}

	resolved := make(chan string, 1)
	go func() {
		<-e.Done
		resolved <- e.Report.Text
		c.Release(e)
	}()

	c.Complete("k", rep)
	// Flood the cap while the follower resolves.
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("flood-%d", i)
		c.Begin(k)
		c.Complete(k, rep)
	}
	if got := <-resolved; got != rep.Text {
		t.Errorf("follower read %q", got)
	}
}
