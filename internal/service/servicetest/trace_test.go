package servicetest

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/result"
	"repro/internal/scenario"
	"repro/internal/service"
)

// expectedTrace renders a spec's trace exactly as `ehsim -scenario
// -trace` writes it — the reference for "correct /trace body".
func expectedTrace(t *testing.T, spec string) string {
	t.Helper()
	sp, err := scenario.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := result.WriteTrace(&b, rep.Trace, rep.SpecHash); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// traceBody fetches a done job's unqualified /trace body.
func traceBody(n *Node, id string) (string, error) {
	resp, err := http.Get(n.DirectURL() + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("trace: status %d: %s", resp.StatusCode, body)
	}
	return string(body), nil
}

// The unqualified /trace body is the CLI's trace file byte for byte,
// whichever tier the report came from: a fresh compute, the memory
// cache, a peer, or the disk CAS after a restart.
func TestTraceBodyIdenticalAcrossTiers(t *testing.T) {
	c := NewCluster(t, 2)
	a, b := c.Nodes[0], c.Nodes[1]
	spec, _ := c.OwnedSpec(0, "trace-tiers")
	want := expectedTrace(t, spec)

	// Each report's recorder is shared by every request for it, so the
	// body is fetched by several clients at once.
	const clients = 4
	check := func(n *Node, source string) {
		t.Helper()
		fin, _ := n.Run(spec)
		if fin.Source != source {
			t.Fatalf("source = %q, want %q", fin.Source, source)
		}
		bodies := make([]string, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bodies[i], errs[i] = traceBody(n, fin.ID)
			}()
		}
		wg.Wait()
		for i, got := range bodies {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got != want {
				t.Errorf("%s-served /trace differs from the CLI render (%d vs %d bytes)", source, len(got), len(want))
			}
		}
	}
	check(a, service.SourceCompute)
	check(a, service.SourceCache)
	check(b, service.SourcePeer)
	a.Restart()
	check(a, service.SourceDisk)
}
