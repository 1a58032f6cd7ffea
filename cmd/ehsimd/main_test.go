package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// syncBuf is a goroutine-safe bytes.Buffer: run writes from the server
// goroutine while the test polls.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

const bootSpec = `{
	"name": "daemon-smoke",
	"workload": "fib24",
	"storage": {"c": "10u"},
	"source": {"name": "dc"},
	"duration": 0.002
}`

var listenRE = regexp.MustCompile(`listening on (\S+)`)

func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var out, errb syncBuf
	exit := make(chan int, 1)
	go func() { exit <- run(ctx, []string{"-addr", "127.0.0.1:0"}, &out, &errb) }()

	// Wait for the daemon to announce its (dynamically chosen) address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stdout=%q stderr=%q", out.String(), errb.String())
		}
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(bootSpec))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%+v)", resp.StatusCode, st)
	}

	for deadline := time.Now().Add(30 * time.Second); ; {
		r, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.State == service.JobDone {
			break
		}
		if st.State == service.JobFailed || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	r, err := http.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	sp, err := scenario.Parse([]byte(bootSpec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != rep.Text {
		t.Errorf("daemon result diverges from shared renderer:\n%s\n---\n%s", body, rep.Text)
	}

	// Signal-path shutdown: cancel the context and expect a clean drain.
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit code %d, stderr: %s", code, errb.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after shutdown")
	}
	if !strings.Contains(out.String(), "drained, exiting") {
		t.Errorf("missing drain log, stdout: %s", out.String())
	}
}

func TestHelpExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h exited %d", code)
	}
	if !strings.Contains(errb.String(), "-addr") {
		t.Errorf("usage should mention -addr: %s", errb.String())
	}
}

func TestBadAddrFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, &out, &errb); code != 1 {
		t.Errorf("exit %d, want 1 (stderr: %s)", code, errb.String())
	}
}

// bootDaemon starts run() with args in a goroutine and waits for the
// announced listen address. Returns the base URL, the output buffers,
// the exit channel, and the cancel that triggers the SIGTERM drain
// path.
func bootDaemon(t *testing.T, args []string) (string, *syncBuf, *syncBuf, chan int, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out, errb := &syncBuf{}, &syncBuf{}
	exit := make(chan int, 1)
	go func() { exit <- run(ctx, args, out, errb) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], out, errb, exit, cancel
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never announced its address; stdout=%q stderr=%q", out.String(), errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shutdownDaemon drives the signal path and waits for a clean exit.
func shutdownDaemon(t *testing.T, cancel context.CancelFunc, exit chan int, errb *syncBuf) {
	t.Helper()
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d, stderr: %s", code, errb.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after shutdown")
	}
}

// runJobOn submits bootSpec and waits it out, returning the terminal
// status and the result body plus its X-Spec-Hash header.
func runJobOn(t *testing.T, base string) (service.JobStatus, string, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(bootSpec))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for deadline := time.Now().Add(30 * time.Second); ; {
		r, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.State == service.JobDone {
			break
		}
		if st.State == service.JobFailed || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	r, err := http.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	hash := r.Header.Get("X-Spec-Hash")
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", r.StatusCode, body)
	}
	return st, string(body), hash
}

// The crash/restart cycle: a daemon with -cache-dir computes a result,
// drains out on SIGTERM, and a fresh daemon over the same directory
// serves the resubmission from disk — cached, byte-identical, same
// content address.
func TestDaemonRestartServesPersistedResult(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-cache-dir", dir}

	base1, _, errb1, exit1, cancel1 := bootDaemon(t, args)
	st1, body1, hash1 := runJobOn(t, base1)
	if st1.Cached {
		t.Fatal("first run unexpectedly cached")
	}
	shutdownDaemon(t, cancel1, exit1, errb1)

	base2, out2, errb2, exit2, cancel2 := bootDaemon(t, args)
	defer shutdownDaemon(t, cancel2, exit2, errb2)
	if !strings.Contains(out2.String(), "1 entries resident") {
		t.Errorf("restarted daemon did not report the persisted entry: %q", out2.String())
	}
	st2, body2, hash2 := runJobOn(t, base2)
	if !st2.Cached || st2.Source != service.SourceDisk {
		t.Errorf("restarted daemon: cached=%v source=%q, want a disk hit", st2.Cached, st2.Source)
	}
	if body2 != body1 {
		t.Error("restarted daemon served different bytes than the original run")
	}
	if hash1 == "" || hash2 != hash1 {
		t.Errorf("X-Spec-Hash %q / %q, want identical non-empty content addresses", hash1, hash2)
	}
}

// -peers without -self is a configuration error, caught at startup.
func TestPeersRequireSelf(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-peers", "http://127.0.0.1:1"}, &out, &errb)
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-self") {
		t.Errorf("error should point at -self: %s", errb.String())
	}
}

// A client that sends half a request line and stalls is disconnected
// once readHeaderTimeout passes, and /healthz keeps answering other
// clients the whole time.
func TestSlowHeaderClientIsDisconnected(t *testing.T) {
	base, _, errb, exit, cancel := bootDaemon(t, []string{"-addr", "127.0.0.1:0"})
	defer shutdownDaemon(t, cancel, exit, errb)

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /heal")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(conn)
		closed <- err
	}()

	polls := 0
	for {
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("slow client still connected after %v: %v", time.Since(start), err)
			}
			if elapsed := time.Since(start); elapsed > readHeaderTimeout+2*time.Second {
				t.Errorf("slow client disconnected after %v, want within %v", elapsed, readHeaderTimeout)
			}
			if polls == 0 {
				t.Error("/healthz was never polled while the slow client was connected")
			}
			return
		case <-time.After(100 * time.Millisecond):
		}
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("/healthz while a slow client is connected: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz while a slow client is connected: status %d", resp.StatusCode)
		}
		polls++
	}
}
