// Command ehsimd serves the simulator as a long-running HTTP daemon:
// scenario specs (the same JSON documents ehsim -scenario runs) are
// submitted as jobs, executed on a bounded worker pool, cached by
// content address, and served back byte-identical to the CLI's output:
// a job runs through scenario.RunModel (scenario.ResumeModel after a
// checkpoint), the path ehsim runs, and its cache tiers store the
// report in internal/result's codec, which keeps the text verbatim.
//
// The REST surface (see docs/API.md for the full reference):
//
//	POST   /v1/jobs               submit a spec; 429 + Retry-After under backpressure
//	GET    /v1/jobs/{id}          poll status and progress
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/jobs/{id}/result   the report (byte-identical to ehsim -scenario)
//	GET    /v1/jobs/{id}/trace    the V_CC trace (full chunked CSV, or ?from=&to=&points= for a decimated window)
//	POST   /v1/batches            submit N specs; completions stream back as NDJSON
//	GET    /v1/cache/{hash}       peer cache lookup (encoded result blob)
//	PUT    /v1/cache/{hash}       peer cache push (replication to the hash's owner)
//	GET    /v1/registry           machine-readable ehsim -list
//	GET    /metrics               queue/cache/work/disk/peer counters
//
// With -cache-dir, computed results are written through to a disk CAS
// and survive restarts. With -peers/-self, nodes federate: each spec
// hash has an owner on a rendezvous ring, lookups consult the owner's
// cache before computing, and computed results replicate to their
// owner.
//
// On SIGINT/SIGTERM the daemon stops accepting work and drains. With
// -cache-dir, running jobs are checkpointed to <cache-dir>/checkpoints
// instead of discarded: the next boot with the same -cache-dir resumes
// them from the saved engine state and the finished result is
// byte-identical to an uninterrupted run. Without a cache dir, accepted
// jobs run to completion before exit.
//
// Usage:
//
//	ehsimd -addr :8080 -cache-dir /var/cache/ehsimd
//	curl -s -XPOST --data-binary @examples/scenarios/fig7-rectified-sine-hibernus.json localhost:8080/v1/jobs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cas"
	"repro/internal/service"
)

// HTTP connection limits. A client gets readHeaderTimeout to send its
// request line and headers, so a stalled or trickling client cannot
// hold a connection (and its goroutine) forever; an idle keep-alive
// connection is closed after idleTimeout. Neither bounds a request's
// body or a streamed response: batches and traces may run long.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// splitPeers parses the -peers list: comma-separated base URLs, blanks
// skipped, trailing slashes trimmed so ring identities compare cleanly.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it serves until ctx is canceled (or
// the listener fails) and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ehsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	queue := fs.Int("queue", 64, "job queue depth (submissions beyond it get 429)")
	jobs := fs.Int("jobs", 2, "jobs executed concurrently")
	workers := fs.Int("workers", 0, "per-job sweep parallelism (0 = one per core)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight HTTP requests")
	cacheDir := fs.String("cache-dir", "", "disk result cache directory (empty = memory-only; survives restarts)")
	cacheBytes := fs.Int64("cache-bytes", 256<<20, "disk cache byte budget (oldest results evicted beyond it)")
	peersFlag := fs.String("peers", "", "comma-separated base URLs of the other cluster nodes")
	self := fs.String("self", "", "this node's advertised base URL (required with -peers)")
	peerTimeout := fs.Duration("peer-timeout", 2*time.Second, "per-peer cache operation bound; slower peers are treated as misses")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	peers := splitPeers(*peersFlag)
	if len(peers) > 0 && *self == "" {
		fmt.Fprintln(stderr, "ehsimd: -peers requires -self (this node's advertised URL on the ring)")
		return 2
	}

	var store *cas.Store
	var ckpts *service.CheckpointStore
	if *cacheDir != "" {
		var err error
		store, err = cas.Open(*cacheDir, cas.Options{BudgetBytes: *cacheBytes})
		if err != nil {
			fmt.Fprintf(stderr, "ehsimd: opening cache dir: %v\n", err)
			return 1
		}
		ckpts, err = service.OpenCheckpointStore(filepath.Join(*cacheDir, "checkpoints"))
		if err != nil {
			fmt.Fprintf(stderr, "ehsimd: opening checkpoint store: %v\n", err)
			return 1
		}
	}

	svc := service.New(service.Config{
		QueueDepth:   *queue,
		JobWorkers:   *jobs,
		SweepWorkers: *workers,
		CAS:          store,
		Checkpoints:  ckpts,
		SelfURL:      strings.TrimRight(*self, "/"),
		Peers:        peers,
		PeerTimeout:  *peerTimeout,
	}).Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "ehsimd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "ehsimd: listening on %s (queue=%d, jobs=%d)\n", ln.Addr(), *queue, *jobs)
	if store != nil {
		fmt.Fprintf(stdout, "ehsimd: disk cache at %s (%d entries resident, budget %d bytes)\n", *cacheDir, store.Len(), *cacheBytes)
	}
	if ckpts != nil {
		// Resume off the serving path: each checkpoint is resubmitted
		// through the normal queue, so boot stays fast and resumed jobs
		// respect the same concurrency bounds as fresh ones.
		go func() {
			if n := svc.ResumeCheckpoints(ctx); n > 0 {
				fmt.Fprintf(stdout, "ehsimd: resumed %d checkpointed job(s)\n", n)
			}
		}()
	}
	if len(peers) > 0 {
		fmt.Fprintf(stdout, "ehsimd: federated as %s with %d peer(s)\n", *self, len(peers))
	}

	hs := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "ehsimd: %v\n", err)
			return 1
		}
	case <-ctx.Done():
		// Restore default signal handling first: a second SIGINT/SIGTERM
		// during a long drain force-kills instead of being swallowed by
		// the already-canceled context.
		signal.Reset(os.Interrupt, syscall.SIGTERM)
		// Drain first: new submissions already get 503, but the HTTP
		// surface stays up throughout, so clients can keep polling and
		// fetch the results of the jobs being finished. Only then close
		// the server.
		fmt.Fprintln(stdout, "ehsimd: shutting down, draining accepted jobs (second signal force-kills)")
		svc.Drain()
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintf(stderr, "ehsimd: shutdown: %v\n", err)
		}
		fmt.Fprintln(stdout, "ehsimd: drained, exiting")
	}
	return 0
}
