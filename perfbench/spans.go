package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run from
// the benchmark's own code around a public entry point.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Req    int    `json:"req"`    // request the span belongs to
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; dump writes them out when the run ends.
// A nil tracer records nothing, so one code path serves the untraced
// and the traced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id].dur()
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent, req int, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

// durations returns the durations (ms) of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// durationsBy groups the durations (ms) of spans named name by a key of
// the request they belong to.
func (t *tracer) durationsBy(name string, key func(req int) string) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			k := key(s.Req)
			out[k] = append(out[k], ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span name's total self time: its duration
// minus the part covered by its child spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += self[i]
	}
	return out
}

// layerOf names the module a span belongs to: the span name up to its
// first dot ("result.RunSpec" → "result").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTable renders the self time of each span name, per request, with
// its share of the traced phase, and returns the per-layer totals (ms
// per request).
func (t *tracer) selfTable(requests int) ([]string, map[string]float64) {
	self := t.selfTimes()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	lines := []string{fmt.Sprintf("self time by span (ms per request over %d requests; share of %.1f ms traced)", requests, ms(total))}
	layers := map[string]float64{}
	for _, n := range names {
		per := ms(self[n]) / float64(requests)
		layers[layerOf(n)] += per
		lines = append(lines, fmt.Sprintf("  %-28s %10.4f ms  %5.1f%%", n, per, 100*float64(self[n])/float64(total)))
	}
	return lines, layers
}

// finishTrace completes a traced run's report: the run's exact work
// counts, each layer's span self time, and the tracing overhead — the
// median of the traced calls (what) minus the untraced latency median.
func finishTrace(r *run, tr *tracer, L map[string]metric, table []string, requests int, what string, traced, untraced []float64) {
	for k, v := range r.counts {
		L[k] = metric{float64(v), "count"}
	}
	selfLines, layers := tr.selfTable(requests)
	table = append(table, selfLines...)
	for _, l := range selfLayers {
		L["self_ms."+l] = metric{layers[l], "ms"}
	}
	over := median(traced) - median(untraced)
	L["trace.overhead_ms"] = metric{over, "ms"}
	table = append(table, fmt.Sprintf("tracing overhead: traced %s p50 − untraced p50 = %.3f − %.3f = %.3f ms",
		what, median(traced), median(untraced), over))
	r.layers = L
	r.table = append(r.table, table...)
}

// dump writes the spans as JSON.
func (t *tracer) dump(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
