package msync_test

// Tests for the session layer of the public API: functional options,
// *Context variants, graceful shutdown with drain, and dial/handshake retry
// with exponential backoff.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"msync"
	"msync/internal/collection"
	"msync/internal/corpus"
	"msync/internal/obs"
	"msync/internal/transport"
	"msync/internal/wire"
)

// sessionFiles is a small collection pair with one changed file.
func sessionFiles() (serverFiles, clientFiles map[string][]byte) {
	old := bytes.Repeat([]byte("all work and no play makes jack a dull boy. "), 300)
	cur := append(append([]byte{}, old[:4000]...), bytes.Repeat([]byte("NEW"), 1500)...)
	return map[string][]byte{"f.txt": cur}, map[string][]byte{"f.txt": old}
}

// gatedConn blocks every Read until the gate channel is closed, pinning a
// session in flight for as long as the test needs.
type gatedConn struct {
	net.Conn
	r    *bufio.Reader // over Conn; untouched by Read until the gate opens
	gate <-chan struct{}
}

func (g *gatedConn) Read(p []byte) (int, error) {
	<-g.gate
	return g.r.Read(p)
}

// TestOptionsAPISync: the functional-options surface drives a full session
// (tree manifest + timeouts) with the same outcome as the legacy setters.
func TestOptionsAPISync(t *testing.T) {
	serverFiles, clientFiles := sessionFiles()
	srv, err := msync.NewServer(serverFiles, msync.DefaultConfig(),
		msync.WithRoundTimeout(5*time.Second), msync.WithTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	a, b := msync.Pipe()
	go func() {
		defer a.Close()
		srv.Serve(a)
	}()
	cli := msync.NewClient(clientFiles,
		msync.WithTreeManifest(),
		msync.WithTimeout(time.Minute),
		msync.WithRoundTimeout(5*time.Second))
	res, err := cli.SyncContext(context.Background(), b)
	b.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
}

// TestSessionHookObservesOutcomes: the server-side hook sees one event per
// session with costs and error status.
func TestSessionHookObservesOutcomes(t *testing.T) {
	serverFiles, clientFiles := sessionFiles()
	var events []msync.SessionEvent
	var mu sync.Mutex
	srv, err := msync.NewServer(serverFiles, msync.DefaultConfig(),
		msync.WithSessionHook(func(ev msync.SessionEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	a, b := msync.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer a.Close()
		srv.Serve(a)
	}()
	if _, err := msync.NewClient(clientFiles).Sync(b); err != nil {
		t.Fatal(err)
	}
	b.Close()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 || events[0].Err != nil || events[0].Costs == nil || events[0].Costs.Total() == 0 {
		t.Fatalf("hook saw %+v", events)
	}
}

// TestShutdownDrainsInFlight is the graceful-drain acceptance scenario: a
// server under Shutdown lets an in-flight sync run to completion while
// rejecting new dials, and Shutdown returns nil (drained, not forced).
func TestShutdownDrainsInFlight(t *testing.T) {
	serverFiles, clientFiles := sessionFiles()
	srv, err := msync.NewServer(serverFiles, msync.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	addr := l.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeListener(l) }()

	// Start a sync whose client stalls (gated reads) so the server-side
	// session is pinned in flight.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	gate := make(chan struct{})
	cliDone := make(chan error, 1)
	var res *msync.Result
	br := bufio.NewReader(raw)
	go func() {
		r, err := msync.NewClient(clientFiles).SyncContext(context.Background(), &gatedConn{Conn: raw, r: br, gate: gate})
		res = r
		cliDone <- err
	}()
	// The server's first reply byte means it accepted the connection and is
	// inside the session; shutting down before that races with the accept.
	if _, err := br.Peek(1); err != nil {
		t.Fatal(err)
	}

	// Begin the graceful shutdown with a generous grace period.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutDone := make(chan error, 1)
	go func() { shutDone <- srv.Shutdown(ctx) }()

	// New dials must start failing (listener closed) while the in-flight
	// session is still gated.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("server kept accepting dials after Shutdown began")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) while a session was still in flight", err)
	default:
	}

	// Release the in-flight client; it must complete successfully.
	close(gate)
	select {
	case err := <-cliDone:
		if err != nil {
			t.Fatalf("in-flight sync was not drained: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("in-flight sync never finished")
	}
	if err := corpus.VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-shutDone:
		if err != nil {
			t.Fatalf("Shutdown after drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the last session drained")
	}
	if err := <-serveDone; !errors.Is(err, msync.ErrServerClosed) {
		t.Fatalf("ServeListener returned %v, want ErrServerClosed", err)
	}
}

// TestShutdownRacesAccept: a Shutdown that begins while a dialed connection
// may not have been accepted yet (TestShutdownDrainsInFlight waits for the
// server's first byte, so it never sees this). Whichever side wins, the
// client converges to the server's bytes or fails with a typed error — the
// server closing, BUSY, or the connection ending under the handshake — never
// a wrong file; Shutdown returns within its grace, ServeListener returns
// ErrServerClosed, and no goroutine stays behind.
func TestShutdownRacesAccept(t *testing.T) {
	serverFiles, clientFiles := sessionFiles()
	before := runtime.NumGoroutine()
	converged := 0
	const iterations = 60
	for i := 0; i < iterations; i++ {
		srv, err := msync.NewServer(serverFiles, msync.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		l, err := listenLoopback(t)
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.ServeListener(l) }()

		// The kernel completes the dial from the listen backlog; whether the
		// accept loop has the connection yet is the race.
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			res *msync.Result
			err error
		}
		cliDone := make(chan outcome, 1)
		go func() {
			defer conn.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			res, err := msync.NewClient(clientFiles).SyncContext(ctx, conn)
			cliDone <- outcome{res, err}
		}()
		// Not a wait for anything: it moves the Shutdown across the accept
		// and the handshake from one iteration to the next.
		time.Sleep(time.Duration(i%6) * 40 * time.Microsecond)

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("iteration %d: Shutdown = %v, want a drain within the grace", i, err)
		}
		cancel()
		if err := <-serveDone; !errors.Is(err, msync.ErrServerClosed) {
			t.Fatalf("iteration %d: ServeListener returned %v, want ErrServerClosed", i, err)
		}
		out := <-cliDone
		var busy *msync.BusyError
		switch {
		case out.err == nil:
			if err := corpus.VerifyAgainst(out.res.Files, serverFiles); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			converged++
		case errors.Is(out.err, msync.ErrServerClosed), errors.As(out.err, &busy),
			errors.Is(out.err, io.EOF), errors.Is(out.err, io.ErrUnexpectedEOF),
			errors.Is(out.err, syscall.ECONNRESET), errors.Is(out.err, syscall.EPIPE):
		default:
			t.Fatalf("iteration %d: client failed with %v (%T), want a typed shutdown error", i, out.err, out.err)
		}
	}
	t.Logf("%d of %d clients converged, the rest were refused", converged, iterations)

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownForceClosesAfterGrace: a session that never progresses is
// force-closed when the grace period expires, and no goroutine leaks.
func TestShutdownForceClosesAfterGrace(t *testing.T) {
	serverFiles, _ := sessionFiles()
	srv, err := msync.NewServer(serverFiles, msync.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	go srv.ServeListener(l)

	// A peer that connects and never speaks: the server session blocks
	// reading HELLO.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond) // let the server accept it

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded after forced close", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("forced shutdown took %v", el)
	}
}

// TestCloseImmediate: Close reaps sessions without a grace period.
func TestCloseImmediate(t *testing.T) {
	serverFiles, _ := sessionFiles()
	srv, err := msync.NewServer(serverFiles, msync.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeListener(l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; !errors.Is(err, msync.ErrServerClosed) {
		t.Fatalf("ServeListener returned %v, want ErrServerClosed", err)
	}
}

// TestStalledEndpointRoundDeadline: syncing against a TCP endpoint that
// accepts and then stalls returns a deadline error within the configured
// round timeout.
func TestStalledEndpointRoundDeadline(t *testing.T) {
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close() // hold the connection open, never respond
		}
	}()

	_, clientFiles := sessionFiles()
	cli := msync.NewClient(clientFiles, msync.WithRoundTimeout(150*time.Millisecond))
	start := time.Now()
	_, err = cli.SyncTCP(l.Addr().String())
	elapsed := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error from stalled endpoint, got %v", err)
	}
	if elapsed < 140*time.Millisecond || elapsed > 10*time.Second {
		t.Fatalf("deadline fired after %v, configured round timeout 150ms", elapsed)
	}
}

// TestPushHonorsSessionOptions: Push is PushContext with a background
// context, so the session options bound and count it too: WithMetrics counts
// the push, and WithTimeout ends a push whose peer never answers.
func TestPushHonorsSessionOptions(t *testing.T) {
	serverFiles, clientFiles := sessionFiles()
	reg := msync.NewMetricsRegistry()
	pusher, err := msync.NewServer(serverFiles, msync.DefaultConfig(), msync.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := msync.NewServer(clientFiles, msync.DefaultConfig(), msync.WithPush(nil))
	if err != nil {
		t.Fatal(err)
	}
	a, b := msync.Pipe()
	served := make(chan error, 1)
	go func() {
		defer a.Close()
		_, err := receiver.Serve(a)
		served <- err
	}()
	_, err = pusher.Push(b)
	b.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if got := reg.Snapshot().Counters[obs.MetricSessions]; got != 1 {
		t.Errorf("%s = %d after one Push, want 1", obs.MetricSessions, got)
	}

	stalled, err := msync.NewServer(serverFiles, msync.DefaultConfig(), msync.WithTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	a, b = msync.Pipe() // nothing ever answers on a
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		_, err := stalled.Push(b)
		done <- err
	}()
	select {
	case err := <-done:
		// The connection's deadline is the context's, and may fire first.
		if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("want the session timeout, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Push under WithTimeout(100ms) still blocked after 2s")
	}
}

// TestRetryBackoffRecovery is the retry acceptance scenario: the endpoint
// stalls the first two attempts (round deadline fires each time), then
// serves properly; the client succeeds on the third attempt with two
// jittered backoff sleeps recorded on the injected clock.
func TestRetryBackoffRecovery(t *testing.T) {
	serverFiles, clientFiles := sessionFiles()
	srv, err := msync.NewServer(serverFiles, msync.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()

	var attempts atomic.Int32
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			if attempts.Add(1) <= 2 {
				held = append(held, c) // stall: hold open, never respond
				continue
			}
			go func(c net.Conn) {
				defer c.Close()
				srv.Serve(c)
			}(c)
		}
	}()

	clock := transport.NewFakeClock(time.Unix(0, 0))
	cli := msync.NewClient(clientFiles,
		msync.WithRoundTimeout(150*time.Millisecond),
		msync.WithClock(clock),
		msync.WithRetry(msync.RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    time.Second,
			Multiplier:  2,
			Jitter:      0.5,
			Seed:        42,
		}))
	res, err := cli.SyncTCPContext(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatalf("sync did not recover via retry: %v", err)
	}
	if err := corpus.VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("endpoint saw %d attempts, want 3", got)
	}
	slept := clock.Slept()
	if len(slept) != 2 {
		t.Fatalf("want 2 backoff sleeps, got %v", slept)
	}
	for i, d := range slept {
		nominal := 100 * time.Millisecond << i
		if d < nominal/2 || d > nominal+nominal/2 {
			t.Fatalf("backoff %d = %v outside ±50%% jitter around %v", i, d, nominal)
		}
	}
}

// TestRetryBoundedAttempts: a permanently dead endpoint exhausts the
// bounded attempt budget and reports the failure.
func TestRetryBoundedAttempts(t *testing.T) {
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens: every dial fails

	_, clientFiles := sessionFiles()
	clock := transport.NewFakeClock(time.Unix(0, 0))
	cli := msync.NewClient(clientFiles,
		msync.WithClock(clock),
		msync.WithRetry(msync.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, Seed: 7}))
	_, err = cli.SyncTCPContext(context.Background(), addr)
	if err == nil {
		t.Fatal("sync to a dead endpoint succeeded")
	}
	if got := clock.Slept(); len(got) != 2 {
		t.Fatalf("3 attempts should record exactly 2 sleeps, got %v", got)
	}
}

// TestRetryStopsAtOlderServer: a server from before MANIFEST_SHORT refuses a
// short-sum manifest the same way on every attempt — its ERROR names the frame
// UNKNOWN(22) — so the client gives up after one, with no backoff sleeps,
// where any other handshake failure is retried.
func TestRetryStopsAtOlderServer(t *testing.T) {
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	var attempts atomic.Int32
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			attempts.Add(1)
			go func(c net.Conn) {
				defer c.Close()
				fr, fw := wire.NewFrameReader(c), wire.NewFrameWriter(c)
				if ft, _, err := fr.ReadFrame(); err != nil || ft != wire.FrameHello {
					return
				}
				ft, _, err := fr.ReadFrame()
				if err != nil {
					return
				}
				// What a server said before MANIFEST_REF existed.
				_ = fw.WriteFrame(wire.FrameError, fmt.Appendf(nil, "wire: expected frame MANIFEST, got UNKNOWN(%d)", ft))
				_ = fw.Flush()
			}(c)
		}
	}()

	files := make(map[string][]byte)
	for i := range 40 {
		files[fmt.Sprintf("docs/chapter%02d.txt", i)] = bytes.Repeat([]byte{byte('a' + i%26)}, 100+i)
	}
	clock := transport.NewFakeClock(time.Unix(0, 0))
	cli := msync.NewClient(files,
		msync.WithClock(clock),
		msync.WithRetry(msync.RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, Seed: 7}))
	_, err = cli.SyncTCPContext(context.Background(), l.Addr().String())
	if !errors.Is(err, collection.ErrHandshake) || !strings.Contains(err.Error(), "got UNKNOWN(22)") {
		t.Fatalf("want the older server's refusal as a handshake error, got %v", err)
	}
	if got, slept := attempts.Load(), clock.Slept(); got != 1 || len(slept) != 0 {
		t.Fatalf("%d attempts, sleeps %v: want one attempt and no backoff", got, slept)
	}
}

// TestSyncFileContextCancel: the in-process per-file engine honors
// cancellation at round boundaries.
func TestSyncFileContextCancel(t *testing.T) {
	serverFiles, clientFiles := sessionFiles()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := msync.SyncFileContext(ctx, clientFiles["f.txt"], serverFiles["f.txt"], msync.DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
