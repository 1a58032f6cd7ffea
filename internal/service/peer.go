package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/result"
	"repro/internal/scenario"
)

// watchCancel derives a context that cancels when the job's cancel
// channel closes, so an in-flight peer lookup aborts with its job. The
// watcher goroutine exits when stop closes (lookup finished) or the
// context dies.
func watchCancel(parent context.Context, cancel, stop <-chan struct{}) (context.Context, context.CancelFunc) {
	ctx, cfn := context.WithCancel(parent)
	go func() {
		select {
		case <-cancel:
			cfn()
		case <-stop:
		case <-ctx.Done():
		}
	}()
	return ctx, cfn
}

// Owner picks the node that owns a spec hash from a set of node URLs by
// rendezvous (highest-random-weight) hashing: every node scores
// sha256(node, hash) and the highest score wins. Deterministic, order-
// independent, and minimally disruptive — adding or removing one node
// only moves the keys that node gains or loses. Every cluster member
// must run this over the same URL set or routing diverges.
func Owner(nodes []string, specHash string) string {
	var best string
	var bestScore [sha256.Size]byte
	for _, n := range nodes {
		h := sha256.New()
		io.WriteString(h, n)
		h.Write([]byte{0})
		io.WriteString(h, specHash)
		var score [sha256.Size]byte
		h.Sum(score[:0])
		if best == "" || bytes.Compare(score[:], bestScore[:]) > 0 {
			best, bestScore = n, score
		}
	}
	return best
}

// peerSet is the federation tier: the rendezvous ring plus the HTTP
// client used for peer cache lookups and pushes.
type peerSet struct {
	self    string
	ring    []string // self ∪ peers, sorted (order is irrelevant to Owner; sorted for stable logs)
	timeout time.Duration
	client  *http.Client
}

func newPeerSet(self string, peers []string, timeout time.Duration) *peerSet {
	ring := append([]string{self}, peers...)
	sort.Strings(ring)
	return &peerSet{
		self:    self,
		ring:    ring,
		timeout: timeout,
		// The client timeout bounds the whole exchange — dial, headers,
		// and body. A peer that stalls mid-body is as absent as one that
		// never answered.
		client: &http.Client{Timeout: timeout},
	}
}

func (p *peerSet) owner(specHash string) string { return Owner(p.ring, specHash) }

// lookup asks owner's cache for a spec hash. Returns (report, nil) on a
// verified hit, (nil, nil) on a clean miss, and (nil, err) when the
// peer was unreachable, slow, or served a corrupt body — callers treat
// the last two identically (compute locally) but count them apart.
func (p *peerSet) lookup(owner, specHash string, cancel <-chan struct{}) (*scenario.ModelReport, error) {
	req, err := http.NewRequest(http.MethodGet, owner+"/v1/cache/"+specHash, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Engine-Version", result.EngineVersion)
	if cancel != nil {
		stop := make(chan struct{})
		defer close(stop)
		ctx, cancelReq := watchCancel(req.Context(), cancel, stop)
		defer cancelReq()
		req = req.WithContext(ctx)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: status %d", owner, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("peer %s: reading body: %w", owner, err)
	}
	// Verify the transfer end to end: a mid-body disconnect or proxy
	// mangling must read as an error, never as a servable result.
	if want := resp.Header.Get("X-Body-Sum"); want != "" {
		sum := sha256.Sum256(body)
		if hex.EncodeToString(sum[:]) != want {
			return nil, fmt.Errorf("peer %s: body checksum mismatch", owner)
		}
	}
	rep, err := result.DecodeReport(body)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", owner, err)
	}
	if rep.SpecHash != specHash {
		return nil, fmt.Errorf("peer %s: served report for %s, want %s", owner, rep.SpecHash, specHash)
	}
	return rep, nil
}

// push replicates a computed report, encoded as data, to its owning
// peer (PUT, best effort). The peer validates and adopts it into its
// own cache tiers.
func (p *peerSet) push(owner, specHash string, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, owner+"/v1/cache/"+specHash, bytes.NewReader(data))
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Engine-Version", result.EngineVersion)
	req.Header.Set("X-Body-Sum", hex.EncodeToString(sum[:]))
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer %s: push status %d", owner, resp.StatusCode)
	}
	return nil
}
