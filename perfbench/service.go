package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/result"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/trace"
)

// Service tiers, as the batch stream's source field names them.
const (
	tierCache   = service.SourceCache
	tierDisk    = service.SourceDisk
	tierCompute = service.SourceCompute
)

// svcHeads are the non-memory requests of a nominal run: computes of
// fresh fig7 and task-burst variants, and disk hits on the task-burst
// pool. Each head is followed by memory hits on the same spec; svcHits
// is their total. On a 2-core x86-64 host a memory
// hit takes about 0.4 ms, a fig7 compute 12 ms, and a task-burst compute
// or disk hit 40–50 ms (its 20 000-sample trace dominates). The median
// (rank 1865 of 3730) falls inside the memory hits (ranks 0–2999); the
// tail (rank 3719, ten beyond it) falls inside the 30 task-burst trace
// requests at the top.
var svcHeads = []class{
	{tierCompute + "/fig7", 700},
	{tierCompute + "/taskburst", 10},
	{tierDisk, 20},
}

const (
	svcHits     = 3000
	svcPoolSize = 8 // task-burst specs written to the CAS in set-up, served as disk hits
)

// Spec kinds: index into the two curated specs variants derive from.
const (
	kindFig7 = iota
	kindTaskburst
)

// svcReq is one request of the service stream: the spec it submits and
// the tier that must serve it.
type svcReq struct {
	tier string
	spec int // index into the run's spec table
}

// serviceStream generates the request stream and the kind of every spec
// it submits. Specs 0..svcPoolSize-1 are the disk pool; each compute
// head gets a fresh spec.
//
// The server keeps one completed report in memory (CacheEntries 1) and
// one client sends requests one at a time, so the tier of every request
// is certain: a compute or disk head leaves its spec as the only memory
// entry, a repeat of that spec is a memory hit, and a pool spec other
// than the one in memory is a disk hit.
func serviceStream(seed uint64, scale int) ([]svcReq, []int) {
	heads := deck(svcHeads, scale, seed)
	r := newRand(seed + 1)
	// Memory hits are spread evenly: every head gets the same share, and
	// the remainder goes one each to heads drawn from the seed.
	hits := make([]int, len(heads))
	for i := range hits {
		hits[i] = svcHits * scale / len(heads)
	}
	for _, i := range r.Perm(len(heads))[:svcHits*scale%len(heads)] {
		hits[i]++
	}
	kinds := make([]int, svcPoolSize)
	for i := range kinds {
		kinds[i] = kindTaskburst
	}
	var out []svcReq
	inMemory := -1
	for i, h := range heads {
		q := svcReq{tier: tierDisk, spec: len(kinds)}
		switch svcHeads[h].name {
		case tierCompute + "/fig7":
			q.tier = tierCompute
			kinds = append(kinds, kindFig7)
		case tierCompute + "/taskburst":
			q.tier = tierCompute
			kinds = append(kinds, kindTaskburst)
		default:
			if inMemory >= 0 && inMemory < svcPoolSize {
				q.spec = r.IntN(svcPoolSize - 1)
				if q.spec >= inMemory {
					q.spec++ // skip the pool spec held in memory
				}
			} else {
				q.spec = r.IntN(svcPoolSize)
			}
		}
		inMemory = q.spec
		out = append(out, q)
		for j := 0; j < hits[i]; j++ {
			out = append(out, svcReq{tier: tierCache, spec: q.spec})
		}
	}
	return out, kinds
}

// svcSpec materialises a variant of the given kind. A variant differs
// from its curated spec only in its name, which gives it its own content
// hash and the same simulation work.
func svcSpec(base [2]*scenario.Spec, kind, i int, tag string) ([]byte, error) {
	sp := base[kind].Clone()
	sp.Name = fmt.Sprintf("%s-%s%d", sp.Name, tag, i)
	return sp.Canonical()
}

// batchItem is the line of the batch stream the benchmark reads.
type batchItem struct {
	State  string `json:"state"`
	Source string `json:"source"`
	Error  string `json:"error"`
	Result string `json:"result"`
}

// daemon is one in-process ehsimd on loopback with a fresh CAS.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	casDir string
}

func startDaemon(casDir string) (*daemon, error) {
	if err := os.RemoveAll(casDir); err != nil {
		return nil, err
	}
	store, err := cas.Open(casDir, cas.Options{})
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{CAS: store, CacheEntries: 1, SweepWorkers: 1}).Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: time.Minute},
		casDir: casDir,
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the job workers down, waits for both,
// and removes the CAS directory.
func (d *daemon) stop() error {
	err := d.hs.Shutdown(context.Background())
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Drain()
	d.client.CloseIdleConnections()
	if rerr := os.RemoveAll(d.casDir); err == nil {
		err = rerr
	}
	return err
}

// submit runs one spec as a single-spec POST /v1/batches and returns
// its stream line; the server waits for the job itself.
func (d *daemon) submit(spec []byte) (batchItem, error) {
	body, err := json.Marshal(struct {
		Specs []json.RawMessage `json:"specs"`
	}{[]json.RawMessage{spec}})
	if err != nil {
		return batchItem{}, err
	}
	resp, err := d.client.Post(d.url+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		return batchItem{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return batchItem{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return batchItem{}, fmt.Errorf("POST /v1/batches: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var it batchItem
	if err := json.Unmarshal(data, &it); err != nil {
		return batchItem{}, fmt.Errorf("batch line: %w", err)
	}
	if it.Error != "" || it.State != string(service.JobDone) {
		return it, fmt.Errorf("job %s: %s", it.State, it.Error)
	}
	return it, nil
}

// metrics reads the /metrics counters the benchmark cross-checks.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, "ehsimd_")] = v
		}
	}
	return out, sc.Err()
}

// svcBase loads the two curated specs the variants derive from.
func svcBase() ([2]*scenario.Spec, error) {
	var base [2]*scenario.Spec
	for i, name := range []string{"fig7-rectified-sine-hibernus", "taskburst-wispcam"} {
		sp, err := scenario.Load(filepath.Join(scenarioDir, name+".json"))
		if err != nil {
			return base, err
		}
		base[i] = sp
	}
	return base, nil
}

// serviceSetup starts the daemon and CAS, writes the disk pool through
// the service, and makes one untimed warm-up pass over each request
// class: a compute of each variant kind, a disk hit and a memory hit.
// It ends with a warm-up compute so that no pool spec is in memory.
func serviceSetup(casDir string, specs [][]byte) (*daemon, error) {
	base, err := svcBase()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(casDir)
	if err != nil {
		return nil, err
	}
	var warm [][]byte
	for i, kind := range []int{kindFig7, kindTaskburst, kindFig7} {
		spec, err := svcSpec(base, kind, i, "warm")
		if err != nil {
			return nil, errors.Join(err, d.stop())
		}
		warm = append(warm, spec)
	}
	steps := append(append([][]byte{}, specs[:svcPoolSize]...), warm[0], warm[1], specs[0], specs[0], warm[2])
	for _, spec := range steps {
		if _, err := d.submit(spec); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up: %w", err), d.stop())
		}
	}
	return d, nil
}

func runService(cfg config) (*run, error) {
	stream, kinds := serviceStream(cfg.seed, cfg.scale)
	base, err := svcBase()
	if err != nil {
		return nil, err
	}
	specs := make([][]byte, len(kinds))
	for i, kind := range kinds {
		if specs[i], err = svcSpec(base, kind, i, "v"); err != nil {
			return nil, err
		}
	}
	casDir := filepath.Join(cfg.out, "cas")
	var d *daemon
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if d, err = serviceSetup(casDir, specs); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cfg.clock.sample()
	}
	r := &run{attempted: len(stream), casFS: fsType(casDir)}
	texts, lat, err := serveStream(d, r, stream, specs, nil, cfg.clock)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	r.e2e = e2eMetrics(setups, lat, float64(len(stream)-r.failed), sum(lat)/1e3)
	checkServiceTexts(r, stream, specs, texts)

	if cfg.trace {
		if err := traceService(cfg, r, stream, specs, kinds, lat); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// serveStream sends the stream through the daemon, one request at a
// time, and returns each request's result text and latency. It checks
// every request's tier, and the /metrics counters against the tiers.
// A non-nil clock is sampled between requests.
func serveStream(d *daemon, r *run, stream []svcReq, specs [][]byte, tr *tracer, clock *hostClock) (texts []string, lat []float64, err error) {
	before, err := d.metrics()
	if err != nil {
		return nil, nil, err
	}
	texts = make([]string, len(stream))
	lat = make([]float64, len(stream))
	tiers := map[string]int64{}
	runtime.GC()
	for i, q := range stream {
		id := tr.begin("service.POST /v1/batches", -1, i)
		ts := time.Now()
		it, err := d.submit(specs[q.spec])
		lat[i] = ms(time.Since(ts))
		tr.end(id)
		if clock != nil {
			clock.sample()
		}
		if err != nil {
			r.failed++
			r.failf("request %d: %v", i, err)
			continue
		}
		if it.Source != q.tier {
			r.failf("request %d: served from %q, the stream expects %q", i, it.Source, q.tier)
		}
		tiers[it.Source]++
		texts[i] = it.Result
	}
	after, err := d.metrics()
	if err != nil {
		return nil, nil, err
	}
	delta := func(k string) int64 { return int64(after[k] - before[k]) }
	r.counts = map[string]int64{
		"service.requests.cache":             tiers[tierCache],
		"service.requests.disk":              tiers[tierDisk],
		"service.requests.compute":           tiers[tierCompute],
		"service.metrics.cache_hits_total":   delta("cache_hits_total"),
		"service.metrics.disk_hits_total":    delta("disk_hits_total"),
		"service.metrics.cache_misses_total": delta("cache_misses_total"),
	}
	if r.counts["service.metrics.cache_hits_total"] != tiers[tierCache] ||
		r.counts["service.metrics.disk_hits_total"] != tiers[tierDisk] ||
		r.counts["service.metrics.cache_misses_total"] != tiers[tierDisk]+tiers[tierCompute] {
		r.failf("/metrics deltas %v disagree with the served tiers %v", r.counts, tiers)
	}
	r.simSeconds = after["sim_seconds_total"] - before["sim_seconds_total"]
	return texts, lat, nil
}

// checkServiceTexts compares every served result with the benchmark's
// own direct result.RunSpec text for the same spec, whatever the tier.
func checkServiceTexts(r *run, stream []svcReq, specs [][]byte, texts []string) {
	want := map[int]string{}
	for i, q := range stream {
		if texts[i] == "" {
			continue // already counted as failed
		}
		w, ok := want[q.spec]
		if !ok {
			sp, err := scenario.Parse(specs[q.spec])
			if err == nil {
				var rep *result.Report
				if rep, err = result.RunSpec(sp, result.Options{Workers: 1}); err == nil {
					w = rep.Text
				}
			}
			if err != nil {
				r.failf("direct run of spec %d: %v", q.spec, err)
			}
			want[q.spec] = w
		}
		if texts[i] != w {
			r.failed++
			r.failf("request %d (%s): result differs from the direct RunSpec text", i, q.tier)
		}
	}
}

// traceService is the traced run: a fresh daemon serves the same stream
// with a span around each HTTP round trip, and each request's spec is
// then taken through the public calls its tier makes inside the server —
// hash, RunSpec with and without the daemon's trace, WriteTrace, the
// report and trace codecs, CAS put and get — to split its latency.
func traceService(cfg config, r *run, stream []svcReq, specs [][]byte, kinds []int, untraced []float64) error {
	d, err := serviceSetup(filepath.Join(cfg.out, "cas"), specs)
	if err != nil {
		return err
	}
	tr := newTracer()
	shadow := &run{}
	_, tracedLat, err := serveStream(d, shadow, stream, specs, tr, nil)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	for k, v := range shadow.counts {
		if r.counts[k] != v {
			r.failf("traced run counted %s=%d, untraced %d", k, v, r.counts[k])
		}
	}

	scratchDir := filepath.Join(cfg.out, "cas-layers")
	if err := os.RemoveAll(scratchDir); err != nil {
		return err
	}
	store, err := cas.Open(scratchDir, cas.Options{})
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratchDir)
	var blobBytes []float64
	for i, q := range stream {
		var sp *scenario.Spec
		var err error
		tr.do("scenario.hash", -1, i, func() {
			if sp, err = scenario.Parse(specs[q.spec]); err == nil {
				_, err = sp.Hash()
			}
		})
		if err != nil {
			return err
		}
		if q.tier == tierCache {
			continue
		}
		key := fmt.Sprintf("spec-%d", q.spec)
		if q.tier == tierCompute {
			tr.do("result.run", -1, i, func() { _, err = result.RunSpec(sp, result.Options{Workers: 1}) })
			if err != nil {
				return err
			}
			var rep *result.Report
			tr.do("result.run_trace", -1, i, func() {
				rep, err = result.RunSpec(sp, result.Options{Workers: 1, Trace: true, TraceInterval: daemonTraceInterval(sp)})
			})
			if err != nil {
				return err
			}
			if err := timeWriteTrace(tr, i, rep); err != nil {
				return err
			}
			var blob []byte
			tr.do("result.encode", -1, i, func() { blob, err = result.EncodeReport(rep) })
			if err != nil {
				return err
			}
			tr.do("trace.encode", -1, i, func() { trace.EncodeRecorder(rep.Trace) })
			tr.do("cas.put", -1, i, func() { err = store.Put(key, blob) })
			if err != nil {
				return err
			}
			blobBytes = append(blobBytes, float64(len(blob)))
			continue
		}
		// A disk hit: the pool spec's blob, as the daemon wrote it.
		if !store.Contains(key) {
			rep, err := result.RunSpec(sp, result.Options{Workers: 1, Trace: true, TraceInterval: daemonTraceInterval(sp)})
			if err != nil {
				return err
			}
			blob, err := result.EncodeReport(rep)
			if err != nil {
				return err
			}
			if err := store.Put(key, blob); err != nil {
				return err
			}
		}
		var blob []byte
		var ok bool
		tr.do("cas.get", -1, i, func() { blob, ok = store.Get(key) })
		if !ok {
			return fmt.Errorf("cas get %s: miss", key)
		}
		var rep *result.Report
		tr.do("result.decode", -1, i, func() { rep, err = result.DecodeReport(blob) })
		if err != nil {
			return err
		}
		if err := timeWriteTrace(tr, i, rep); err != nil {
			return err
		}
		var wire struct {
			Trace []byte `json:"trace"`
		}
		if err := json.Unmarshal(blob, &wire); err != nil {
			return err
		}
		tr.do("trace.decode", -1, i, func() { _, err = trace.DecodeRecorder(wire.Trace) })
		if err != nil {
			return err
		}
	}
	if err := tr.dump(filepath.Join(cfg.out, fmt.Sprintf("spans-service-seed%d.json", cfg.seed))); err != nil {
		return err
	}

	tierOf := func(req int) string { return stream[req].tier }
	byTier := map[string][]float64{}
	for i, q := range stream {
		byTier[q.tier] = append(byTier[q.tier], untraced[i])
	}
	L := map[string]metric{}
	L["service.metrics.sim_seconds_total"] = metric{r.simSeconds, "s"}
	table := []string{latencyLine(untraced), "per tier (untraced latency; layer calls made outside the server on the same specs)"}
	byKind := map[string][]float64{}
	for i, q := range stream {
		k := q.tier + "/taskburst"
		if kinds[q.spec] == kindFig7 {
			k = q.tier + "/fig7"
		}
		byKind[k] = append(byKind[k], untraced[i])
	}
	for _, t := range []string{tierCache, tierDisk, tierCompute} {
		L["service.latency_ms_p50."+t] = metric{median(byTier[t]), "ms"}
		line := fmt.Sprintf("  %-8s %5d requests, p50 %.3f ms;", t, len(byTier[t]), median(byTier[t]))
		for _, k := range []string{"fig7", "taskburst"} {
			if v := byKind[t+"/"+k]; len(v) > 0 {
				line += fmt.Sprintf(" %s %d at p50 %.3f ms, max %.3f ms;", k, len(v), median(v), sorted(v)[len(v)-1])
			}
		}
		table = append(table, line)
	}
	layerMS := func(metricName, span string) float64 {
		v := median(tr.durations(span))
		L[metricName] = metric{v, "ms"}
		return v
	}
	layerMS("scenario.hash_ms", "scenario.hash")
	L["scenario.compile_ms"] = L["scenario.hash_ms"]
	runMS := layerMS("result.run_ms", "result.run")
	runTraceMS := layerMS("result.run_trace_ms", "result.run_trace")
	layerMS("result.write_trace_ms", "result.WriteTrace")
	layerMS("result.encode_ms", "result.encode")
	layerMS("result.decode_ms", "result.decode")
	layerMS("trace.encode_ms", "trace.encode")
	layerMS("trace.decode_ms", "trace.decode")
	layerMS("cas.put_ms", "cas.put")
	layerMS("cas.get_ms", "cas.get")
	L["cas.blob_bytes"] = metric{median(blobBytes), "bytes"}
	table = append(table, fmt.Sprintf("  RunSpec p50: %.3f ms without trace, %.3f ms with the daemon's trace", runMS, runTraceMS))
	wt := tr.durationsBy("result.WriteTrace", tierOf)
	for _, t := range []string{tierCompute, tierDisk} {
		share := median(wt[t]) / median(byTier[t])
		L["service.write_trace_share."+t] = metric{share, "1"}
		table = append(table, fmt.Sprintf("  result.WriteTrace share of %s-tier latency: %.3f = %.3f / %.3f ms",
			t, share, median(wt[t]), median(byTier[t])))
	}
	for _, n := range []string{"scenario.hash", "result.encode", "trace.encode", "cas.put", "cas.get", "result.decode", "trace.decode"} {
		table = append(table, fmt.Sprintf("  %-14s p50 %.3f ms over %d calls", n, median(tr.durations(n)), len(tr.durations(n))))
	}
	table = append(table, fmt.Sprintf("  CAS blob p50 %.0f bytes; CAS on %s", median(blobBytes), r.casFS))
	finishTrace(r, tr, L, table, len(stream), "round trip", tracedLat, untraced)
	return nil
}

// timeWriteTrace re-renders a report's trace as the service does for
// every result it serves with one.
func timeWriteTrace(tr *tracer, req int, rep *result.Report) error {
	if rep.Trace == nil {
		return fmt.Errorf("report %s carries no trace", rep.SpecHash)
	}
	var err error
	tr.do("result.WriteTrace", -1, req, func() {
		var b bytes.Buffer
		err = result.WriteTrace(&b, rep.Trace, rep.SpecHash)
	})
	return err
}

// daemonTraceInterval is the trace interval ehsimd uses for a spec: the
// CLI default, stretched so a trace holds at most 20 000 samples.
func daemonTraceInterval(sp *scenario.Spec) float64 {
	const maxSamples = 20_000
	iv := result.TraceInterval
	if d := float64(sp.Duration); d/iv > maxSamples-1 {
		iv = d / (maxSamples - 1)
	}
	return iv
}
