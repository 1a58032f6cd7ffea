package service

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// The request-path contract a submission relies on, whatever the
// daemon keeps between requests: a spec's identity is its content, not
// its spelling; a rejected body is rejected the same way every time;
// history pruning drops only the oldest finished records; and a batch
// streams each line as its spec finishes.

// directText is the report text scenario.RunModel renders for spec.
func directText(t *testing.T, spec string) (*scenario.ModelReport, string) {
	t.Helper()
	sp, err := scenario.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rep, rep.Text
}

// postBatch POSTs specs as one batch and returns the stream lines by
// index.
func postBatch(t *testing.T, url string, specs ...string) map[int]batchItem {
	t.Helper()
	body := fmt.Sprintf(`{"specs":[%s]}`, strings.Join(specs, ","))
	resp, err := http.Post(url+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("batch status %d", resp.StatusCode)
		return nil
	}
	out := map[int]batchItem{}
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var item batchItem
		if err := dec.Decode(&item); err != nil {
			t.Errorf("stream line: %v", err)
			return nil
		}
		out[item.Index] = item
	}
	return out
}

func TestSpellingsShareHashAndResult(t *testing.T) {
	_, ts := testServer(t, Config{})
	spellings := []string{
		tinySpec("svc-spelling"),
		// The same spec: other key order, no whitespace, 10u as 1e-05.
		`{"duration":0.002,"source":{"name":"dc"},"storage":{"c":1e-05},"workload":"fib24","name":"svc-spelling"}`,
	}
	_, want := directText(t, spellings[0])
	var hash string
	for i, spec := range append(spellings, spellings[1]) {
		st, resp := submit(t, ts, spec)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
		fin := await(t, ts, st.ID)
		if fin.State != JobDone {
			t.Fatalf("submission %d: state %s (%s)", i, fin.State, fin.Error)
		}
		if i == 0 {
			hash = fin.Hash
		} else if fin.Hash != hash {
			t.Errorf("submission %d: hash %s, first spelling %s", i, fin.Hash, hash)
		}
		if i > 0 && fin.Source != SourceCache {
			t.Errorf("submission %d: source %q, want %q", i, fin.Source, SourceCache)
		}
		if _, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); body != want {
			t.Errorf("submission %d: result differs from the direct RunModel text", i)
		}
	}
}

// A rejected body is never remembered as accepted, and its error does
// not change between submissions.
func TestInvalidBodyErrorRepeats(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, body := range []string{
		`{"name":"bad","workload":"nope","storage":{"c":"10u"},"source":{"name":"dc"},"duration":1}`,
		`{"name":"bad","workload":"fib24","storage":{"c":"10u"},"source":{"name":"dc"},"duration":1,"typo":1}`,
		`{"name":`,
	} {
		var first string
		for i := 0; i < 3; i++ {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s: submission %d: %v", body, i, err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: submission %d: status %d (%s), want 400", body, i, resp.StatusCode, b)
			}
			if i == 0 {
				first = string(b)
			} else if string(b) != first {
				t.Errorf("%s: submission %d answered %s, the first %s", body, i, b, first)
			}
		}
	}
}

// With JobHistory 4, ten submissions leave exactly the records the
// rule keeps — queued jobs and the newest record always, then the
// newest finished ones — listed in submission order. The server never
// starts, so a leader stays queued; a hit is done on submission.
func TestJobHistoryPrunesOldestFinishedInOrder(t *testing.T) {
	hit := tinySpec("svc-prune-hit")
	rep, _ := directText(t, hit)
	for _, tc := range []struct {
		name  string
		kinds string   // per submission: q = queued leader, h = cache hit
		want  []string // per submission: the listing after it, by submission index
	}{
		{"mixed", "qhhqhhhhhh", []string{
			"0", "0 1", "0 1 2", "0 1 2 3",
			"0 2 3 4", "0 3 4 5", "0 3 5 6", "0 3 6 7", "0 3 7 8", "0 3 8 9",
		}},
		{"newest-only-finished", "qqqqhhhhhh", []string{
			"0", "0 1", "0 1 2", "0 1 2 3",
			"0 1 2 3 4", "0 1 2 3 5", "0 1 2 3 6", "0 1 2 3 7", "0 1 2 3 8", "0 1 2 3 9",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{JobHistory: 4})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				cancelAndDrain(s)
			})
			s.cache.AdoptCompleted(CacheKey(rep.SpecHash), rep)
			var ids []string
			for i, k := range tc.kinds {
				spec := hit
				if k == 'q' {
					spec = tinySpec(fmt.Sprintf("svc-prune-%s-%d", tc.name, i))
				}
				st, resp := submit(t, ts, spec)
				if wantCode := map[rune]int{'q': http.StatusAccepted, 'h': http.StatusOK}[k]; resp.StatusCode != wantCode {
					t.Fatalf("submission %d (%c): status %d, want %d", i, k, resp.StatusCode, wantCode)
				}
				ids = append(ids, st.ID)
				if code, _, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID); code != http.StatusOK {
					t.Errorf("submission %d: the id just returned answers %d", i, code)
				}
				code, body, _ := getBody(t, ts.URL+"/v1/jobs")
				if code != http.StatusOK {
					t.Fatalf("listing: status %d", code)
				}
				var listing struct {
					Jobs []JobStatus `json:"jobs"`
				}
				if err := json.Unmarshal([]byte(body), &listing); err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, js := range listing.Jobs {
					at := -1
					for n, id := range ids {
						if id == js.ID {
							at = n
						}
					}
					got = append(got, fmt.Sprint(at))
				}
				if strings.Join(got, " ") != tc.want[i] {
					t.Errorf("after submission %d: listing %q, want %q", i, strings.Join(got, " "), tc.want[i])
				}
			}
		})
	}
}

// A batch line is delivered as soon as its spec finishes, even while a
// later spec is still running. The second spec here rides a claim the
// test holds, so it finishes exactly when the test completes it.
func TestBatchLineStreamsBeforeSlowSpecFinishes(t *testing.T) {
	s, ts := testServer(t, Config{})
	fast, slow := tinySpec("svc-stream-fast"), tinySpec("svc-stream-slow")
	slowRep, _ := directText(t, slow)
	key := CacheKey(slowRep.SpecHash)
	if _, claim := s.cache.Begin(key); claim != Lead {
		t.Fatalf("claim %v on a fresh key", claim)
	}

	// The client reads the stream on its own goroutine: until the first
	// line is flushed, not even the response headers have gone out.
	lines := make(chan batchItem, 2)
	go func() {
		defer close(lines)
		body := fmt.Sprintf(`{"specs":[%s,%s]}`, fast, slow)
		resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
		if err != nil {
			lines <- batchItem{Index: -1, Error: err.Error()}
			return
		}
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		for range 2 {
			var item batchItem
			line, err := r.ReadBytes('\n')
			if err == nil {
				err = json.Unmarshal(line, &item)
			}
			if err != nil {
				lines <- batchItem{Index: -1, Error: err.Error()}
				return
			}
			lines <- item
		}
	}()
	select {
	case item := <-lines:
		if item.Index != 0 || item.State != JobDone {
			t.Errorf("first line: index %d state %s (%s), want spec 0 done", item.Index, item.State, item.Error)
		}
	case <-time.After(5 * time.Second):
		s.cache.Complete(key, slowRep)
		t.Fatal("spec 0's line was not delivered while spec 1 was still running")
	}

	s.cache.Complete(key, slowRep)
	item := <-lines
	if item.Index != 1 || item.State != JobDone || item.Result != slowRep.Text {
		t.Errorf("second line: index %d state %s (%s), want spec 1 done with its report", item.Index, item.State, item.Error)
	}
}

// Concurrent identical one-spec batches elect one leader; the others
// ride it or hit its entry. Every one returns the same report text.
func TestConcurrentIdenticalBatchesAgree(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 2})
	spec := tinySpec("svc-concurrent-batch")
	_, want := directText(t, spec)
	const n = 16
	var wg sync.WaitGroup
	got := make([]batchItem, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = postBatch(t, ts.URL, spec)[0]
		}(i)
	}
	wg.Wait()
	leaders := 0
	for i, item := range got {
		if item.State != JobDone || item.Result != want {
			t.Errorf("batch %d: state %s (%s), result equal to the direct text: %v", i, item.State, item.Error, item.Result == want)
		}
		if item.Source == SourceCompute {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d batches computed, want exactly 1", leaders)
	}
}

// The parse memo holds no more specs than the job history, forgets the
// least recently submitted first, and hands every submission of one
// body the same spec.
func TestSpecMemoBoundedByJobHistory(t *testing.T) {
	s := New(Config{JobHistory: 2})
	defer cancelAndDrain(s)
	a, b, c := tinySpec("svc-memo-a"), tinySpec("svc-memo-b"), tinySpec("svc-memo-c")
	for _, spec := range []string{a, b, a, c} {
		if _, err := s.Submit([]byte(spec)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.specs.lru.Len(); n != 2 {
		t.Errorf("memo holds %d specs, want 2", n)
	}
	for spec, want := range map[string]bool{a: true, b: false, c: true} {
		if _, held := s.specs.byKey[sha256.Sum256([]byte(spec))]; held != want {
			t.Errorf("%.40q held %v, want %v", spec, held, want)
		}
	}
	sp1, _, _ := s.specs.parse([]byte(a))
	sp2, _, _ := s.specs.parse([]byte(a))
	if sp1 != sp2 {
		t.Error("two submissions of one body got different specs")
	}
}
