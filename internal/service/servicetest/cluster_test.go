package servicetest

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// expectedText renders a spec exactly as the service does, independent
// of any cluster — the reference for "correct body" assertions.
func expectedText(t *testing.T, spec string) string {
	t.Helper()
	sp, err := scenario.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{
		Trace:         !sp.HasSweep(),
		TraceInterval: scenario.DefaultTraceInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Text
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// Routing is a pure function of the URL set and the hash: every node
// must compute the same owner regardless of the order it learned its
// peers in, or the ring diverges and federation silently degrades.
func TestRoutingIsDeterministicAcrossRingPermutations(t *testing.T) {
	nodes := []string{
		"http://127.0.0.1:9001",
		"http://127.0.0.1:9002",
		"http://127.0.0.1:9003",
	}
	perms := [][]string{
		{nodes[0], nodes[1], nodes[2]},
		{nodes[0], nodes[2], nodes[1]},
		{nodes[1], nodes[0], nodes[2]},
		{nodes[1], nodes[2], nodes[0]},
		{nodes[2], nodes[0], nodes[1]},
		{nodes[2], nodes[1], nodes[0]},
	}
	counts := map[string]int{}
	for i := 0; i < 64; i++ {
		hash := fmt.Sprintf("sha256:%064d", i)
		want := service.Owner(perms[0], hash)
		for _, p := range perms[1:] {
			if got := service.Owner(p, hash); got != want {
				t.Fatalf("hash %s: owner %q under %v, %q under %v", hash, got, p, want, perms[0])
			}
		}
		counts[want]++
	}
	// Rendezvous hashing should also spread keys: no node owns everything.
	for _, n := range nodes {
		if counts[n] == 0 || counts[n] == 64 {
			t.Errorf("degenerate key spread: %v", counts)
		}
	}
}

// A spec submitted to the "wrong" node computes there, replicates to
// its owner, and from then on both nodes serve the same bytes without
// recomputing.
func TestFederationConvergesToOwner(t *testing.T) {
	c := NewCluster(t, 2)
	a, b := c.Nodes[0], c.Nodes[1]
	spec, hash := c.OwnedSpec(0, "converge")

	finB, bodyB := b.Run(spec)
	if finB.Cached || finB.Source != service.SourceCompute {
		t.Fatalf("first run on B: cached=%v source=%q, want a fresh compute", finB.Cached, finB.Source)
	}
	if finB.Hash != hash {
		t.Fatalf("hash mismatch: job %s, minted %s", finB.Hash, hash)
	}
	if want := expectedText(t, spec); bodyB != want {
		t.Fatal("B's computed body differs from the reference renderer")
	}

	// The push to the owner is asynchronous after the job publishes.
	waitFor(t, "replication push", func() bool {
		return b.Server().Metrics().PeerPushes >= 1
	})

	// The owner now serves from its adopted memory tier — no compute.
	finA, bodyA := a.Run(spec)
	if !finA.Cached || finA.Source != service.SourceCache {
		t.Errorf("owner after push: cached=%v source=%q, want memory-cache hit", finA.Cached, finA.Source)
	}
	if bodyA != bodyB {
		t.Error("owner-served body differs from computing node's body")
	}
	// And the push was written through to the owner's disk tier.
	if !a.Store().Contains(service.CacheKey(hash)) {
		t.Error("owner's CAS missing the pushed result")
	}
}

// A report computed for a key a peer owns is encoded once: the body
// pushed to the owner, which the owner writes to its disk tier as
// received, is byte for byte the blob the computing node wrote through
// to its own.
func TestPushedBodyEqualsLocalCASBlob(t *testing.T) {
	c := NewCluster(t, 2)
	a, b := c.Nodes[0], c.Nodes[1]
	spec, hash := c.OwnedSpec(0, "push-blob")
	if fin, _ := b.Run(spec); fin.Source != service.SourceCompute {
		t.Fatalf("run on B: source %q, want compute", fin.Source)
	}
	waitFor(t, "replication push", func() bool {
		return b.Server().Metrics().PeerPushes >= 1
	})
	key := service.CacheKey(hash)
	local, ok := b.Store().Get(key)
	if !ok {
		t.Fatal("computing node's CAS is missing its write-through")
	}
	pushed, ok := a.Store().Get(key)
	if !ok {
		t.Fatal("owner's CAS is missing the pushed report")
	}
	if string(pushed) != string(local) {
		t.Errorf("pushed body (%d bytes) differs from the local CAS blob (%d bytes)", len(pushed), len(local))
	}
}

// A spec owned by a peer that already has it is fetched, not
// recomputed: source "peer", byte-identical, written through to the
// fetching node's own disk tier.
func TestPeerLookupServesByteIdenticalResult(t *testing.T) {
	c := NewCluster(t, 2)
	a, b := c.Nodes[0], c.Nodes[1]
	spec, hash := c.OwnedSpec(0, "peerhit")

	_, bodyA := a.Run(spec)

	finB, bodyB := b.Run(spec)
	if !finB.Cached || finB.Source != service.SourcePeer {
		t.Fatalf("B: cached=%v source=%q, want a peer hit", finB.Cached, finB.Source)
	}
	if bodyB != bodyA {
		t.Error("peer-served body differs from the owner's computed body")
	}
	m := b.Server().Metrics()
	if m.PeerHits != 1 {
		t.Errorf("B PeerHits = %d, want 1", m.PeerHits)
	}
	if m.SimSeconds != 0 {
		t.Errorf("B simulated %v seconds; a peer hit must not compute", m.SimSeconds)
	}
	if !b.Store().Contains(service.CacheKey(hash)) {
		t.Error("peer hit not written through to B's CAS")
	}
}

// The fault matrix: every degraded peer path must end in a correct
// local compute — job done, body byte-identical to the reference
// renderer — never a failed job or a wrong body.
func TestFaultMatrixDegradesToLocalCompute(t *testing.T) {
	c := NewCluster(t, 2)
	a, b := c.Nodes[0], c.Nodes[1]

	cases := []struct {
		name   string
		arm    func(t *testing.T, spec, hash string)
		disarm func()
	}{
		{
			name: "peer-down",
			arm: func(t *testing.T, spec, hash string) {
				a.Proxy.Refuse(true)
			},
			disarm: func() { a.Proxy.Reset() },
		},
		{
			name: "peer-slow-past-timeout",
			arm: func(t *testing.T, spec, hash string) {
				a.Proxy.SetLatency(PeerTimeout * 4)
			},
			disarm: func() { a.Proxy.Reset() },
		},
		{
			name: "mid-body-disconnect",
			arm: func(t *testing.T, spec, hash string) {
				// The owner must have the result so the lookup gets far
				// enough to be cut mid-transfer. Cut past the response
				// headers (~300 bytes) but well short of the full blob,
				// so the disconnect lands inside the body proper.
				a.Run(spec)
				data, ok := a.Store().Get(service.CacheKey(hash))
				if !ok {
					t.Fatal("owner CAS missing the blob to truncate")
				}
				a.Proxy.CutResponseAfter(400 + int64(len(data))/2)
			},
			disarm: func() { a.Proxy.Reset() },
		},
		{
			name: "disk-write-error",
			arm: func(t *testing.T, spec, hash string) {
				b.FailDiskWrites(errors.New("injected: disk full"))
			},
			disarm: func() { b.FailDiskWrites(nil) },
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, hash := c.OwnedSpec(0, "fault-"+tc.name)
			tc.arm(t, spec, hash)
			defer tc.disarm()

			errsBefore := b.Server().Metrics().PeerErrors
			fin, body := b.Run(spec) // Run fails the test unless the job ends done
			if want := expectedText(t, spec); body != want {
				t.Error("degraded path served a wrong body")
			}
			switch tc.name {
			case "disk-write-error":
				if fin.Source != service.SourceCompute {
					t.Errorf("source = %q, want local compute", fin.Source)
				}
				if b.Store().Stats().WriteErrors == 0 {
					t.Error("injected disk fault not counted by the CAS")
				}
				if b.Store().Contains(service.CacheKey(hash)) {
					t.Error("CAS contains a key whose write was faulted")
				}
			default:
				if fin.Cached {
					t.Errorf("source = %q, want an uncached local compute", fin.Source)
				}
				if b.Server().Metrics().PeerErrors <= errsBefore {
					t.Error("peer fault not surfaced in the error counter")
				}
			}
		})
	}
}

// Single-flight holds across the federation: while the owner is
// computing a key, a peer routing the same spec rides that in-flight
// computation through the cache API instead of starting its own.
func TestSingleFlightAcrossNodes(t *testing.T) {
	c := NewCluster(t, 2)
	a, b := c.Nodes[0], c.Nodes[1]
	spec, hash := c.OwnedSpec(0, "oneflight")
	key := service.CacheKey(hash)

	// Claim the computation on the owner by hand so the test controls
	// exactly when it completes.
	entry, claim := a.Server().ResultCache().Begin(key)
	if claim != service.Lead {
		t.Fatalf("claim = %v, want Lead", claim)
	}
	_ = entry

	stB := b.Submit(spec)

	// B's lookup is now parked on A's in-flight entry. Complete it with
	// a real report after a beat.
	time.Sleep(100 * time.Millisecond)
	sp, err := scenario.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a.Server().ResultCache().Complete(key, rep)

	finB := b.Await(stB.ID)
	if finB.State != service.JobDone {
		t.Fatalf("B job: state=%s err=%q", finB.State, finB.Error)
	}
	if !finB.Cached || finB.Source != service.SourcePeer {
		t.Fatalf("B: cached=%v source=%q, want a peer-served ride", finB.Cached, finB.Source)
	}
	body, gotHash := b.ResultBody(stB.ID)
	if body != rep.Text {
		t.Error("B served different bytes than the owner's completed report")
	}
	if gotHash != hash {
		t.Errorf("X-Spec-Hash = %q, want %q", gotHash, hash)
	}
	if m := b.Server().Metrics(); m.SimSeconds != 0 {
		t.Errorf("B simulated %v seconds; it must not have computed", m.SimSeconds)
	}
}

// A restarted node serves its pre-restart results from disk: the warm
// cache survives the process.
func TestRestartServesFromDisk(t *testing.T) {
	c := NewCluster(t, 2)
	a := c.Nodes[0]
	spec, _ := c.OwnedSpec(0, "restart")

	fin1, body1 := a.Run(spec)
	if fin1.Cached {
		t.Fatal("first run unexpectedly cached")
	}

	a.Restart()

	fin2, body2 := a.Run(spec)
	if !fin2.Cached || fin2.Source != service.SourceDisk {
		t.Fatalf("after restart: cached=%v source=%q, want a disk hit", fin2.Cached, fin2.Source)
	}
	if body2 != body1 {
		t.Error("disk-served body differs from the pre-restart body")
	}
	if m := a.Server().Metrics(); m.DiskHits < 1 {
		t.Errorf("DiskHits = %d, want ≥1", m.DiskHits)
	}
}

// The batch endpoint works across the federation: one POST to one node
// completes specs owned by every node, streaming each as it finishes.
func TestBatchStreamsAcrossFederation(t *testing.T) {
	c := NewCluster(t, 2)
	a := c.Nodes[0]

	specA, _ := c.OwnedSpec(0, "batch-a")
	specB, _ := c.OwnedSpec(1, "batch-b")
	req := fmt.Sprintf(`{"specs":[%s,%s]}`, specA, specB)

	resp, err := http.Post(a.DirectURL()+"/v1/batches", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	type line struct {
		Index  int    `json:"index"`
		ID     string `json:"id"`
		State  string `json:"state"`
		Error  string `json:"error"`
		Result string `json:"result"`
	}
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < 2; i++ {
		var ln line
		if err := dec.Decode(&ln); err != nil {
			t.Fatalf("stream line %d: %v", i, err)
		}
		if ln.State != "done" || ln.Error != "" {
			t.Fatalf("line %d: state=%s err=%q", ln.Index, ln.State, ln.Error)
		}
		spec := specA
		if ln.Index == 1 {
			spec = specB
		}
		if want := expectedText(t, spec); ln.Result != want {
			t.Errorf("line %d: streamed result differs from the reference renderer", ln.Index)
		}
	}
}
