package servicetest

import (
	"net/http"
	"testing"

	"repro/internal/service"
)

// A job canceled while its peer lookup is in flight is the job's own
// doing, not a peer fault: it ends canceled, ehsimd_peer_errors_total
// stays put, and the key is free for a resubmission to compute.
func TestCancelDuringPeerLookupIsNotAPeerError(t *testing.T) {
	c := NewCluster(t, 2)
	a, b := c.Nodes[0], c.Nodes[1]
	spec, _ := c.OwnedSpec(0, "cancel-lookup")

	// The owner answers only after the peer timeout, so B's lookup is
	// still in flight when the cancel lands.
	a.Proxy.SetLatency(4 * PeerTimeout)
	errsBefore := b.Server().Metrics().PeerErrors

	st := b.Submit(spec)
	waitFor(t, "job running", func() bool {
		got, _ := b.Server().Job(st.ID)
		return got.State == service.JobRunning
	})
	req, err := http.NewRequest(http.MethodDelete, b.DirectURL()+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	if fin := b.Await(st.ID); fin.State != service.JobCanceled {
		t.Fatalf("job: state %s (%s), want canceled", fin.State, fin.Error)
	}
	if got := b.Server().Metrics().PeerErrors; got != errsBefore {
		t.Errorf("peer errors %d → %d: the job's own cancel was counted as a peer fault", errsBefore, got)
	}

	a.Proxy.Reset()
	if fin, _ := b.Run(spec); fin.Source != service.SourceCompute {
		t.Errorf("resubmission: source %q, want compute", fin.Source)
	}
}
