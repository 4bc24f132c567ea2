package msync_test

// Tests for the server's admission-control layer: the concurrent-session
// cap with its bounded wait queue, BUSY load shedding with retry-after
// hints, transient accept-error recovery, and shutdown draining of queued
// but unadmitted connections.

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msync"
	"msync/internal/corpus"
	"msync/internal/obs"
	"msync/internal/wire"
)

// swarmRetryPolicy is generous enough that every client in an
// oversubscribed swarm eventually wins a slot.
func swarmRetryPolicy() msync.RetryPolicy {
	return msync.RetryPolicy{
		MaxAttempts: 60,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}
}

// TestAdmissionSwarm: 64 clients against a 4-slot server. Every client must
// converge byte-identically — either admitted directly, after queueing, or
// after a BUSY answer and a retried dial — and the admission accounting
// must balance: accepted == admitted + shed, with both gauges drained.
func TestAdmissionSwarm(t *testing.T) {
	serverFiles, clientFiles := sessionFiles()
	reg := msync.NewMetricsRegistry()
	srv, err := msync.NewServer(serverFiles, msync.DefaultConfig(),
		msync.WithMaxSessions(4),
		msync.WithMaxQueued(8),
		msync.WithBusyRetryAfter(20*time.Millisecond),
		msync.WithMetrics(reg),
		msync.WithRoundTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeListener(l) }()

	const clients = 64
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := msync.NewClient(clientFiles, msync.WithRetry(swarmRetryPolicy()))
			res, err := cli.SyncTCP(l.Addr().String())
			if err != nil {
				t.Errorf("swarm client: %v", err)
				failures.Add(1)
				return
			}
			if err := corpus.VerifyAgainst(res.Files, serverFiles); err != nil {
				t.Errorf("swarm client diverged: %v", err)
				failures.Add(1)
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d clients failed", failures.Load(), clients)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, msync.ErrServerClosed) {
		t.Fatalf("ServeListener = %v, want ErrServerClosed", err)
	}

	snap := reg.Snapshot()
	accepted := snap.Counters[obs.MetricConnsAccepted]
	admitted := snap.Counters[obs.MetricSessionsAdmitted]
	shed := snap.Counters[obs.MetricSessionsShed]
	if accepted < clients {
		t.Errorf("accepted %d conns, want >= %d", accepted, clients)
	}
	if accepted != admitted+shed {
		t.Errorf("accounting broken: accepted %d != admitted %d + shed %d",
			accepted, admitted, shed)
	}
	if admitted < clients {
		t.Errorf("admitted %d sessions, want >= %d (every client succeeded)", admitted, clients)
	}
	if g := snap.Gauges[obs.MetricSessionsQueued]; g != 0 {
		t.Errorf("queued gauge = %d after drain, want 0", g)
	}
	if g := snap.Gauges[obs.MetricSessionsActive]; g != 0 {
		t.Errorf("active gauge = %d after drain, want 0", g)
	}
}

// TestBusySurfacesAsTypedError: with the queue disabled and the only slot
// pinned, a retryless client gets an error carrying *msync.BusyError with
// the server's configured hint.
func TestBusySurfacesAsTypedError(t *testing.T) {
	serverFiles, clientFiles := sessionFiles()
	reg := msync.NewMetricsRegistry()
	srv, err := msync.NewServer(serverFiles, msync.DefaultConfig(),
		msync.WithMaxSessions(1),
		msync.WithBusyRetryAfter(250*time.Millisecond),
		msync.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	go srv.ServeListener(l)
	defer srv.Close()

	// Pin the single slot with an idle connection that never speaks.
	pin, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()
	waitForGauge(t, reg, l.Addr().String())

	_, err = msync.NewClient(clientFiles).SyncTCP(l.Addr().String())
	if err == nil {
		t.Fatal("want a busy error, got success")
	}
	var busy *msync.BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("error %v does not carry *msync.BusyError", err)
	}
	if busy.RetryAfter != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want the configured 250ms", busy.RetryAfter)
	}
}

// waitForGauge blocks until the pinned connection above actually occupies
// the session slot (admission happens on the server's goroutine). It waits
// for the pin's admission before probing: a probe dialed earlier could win
// the slot from the pin on the server, which would then shed the pin.
func waitForGauge(t *testing.T, reg *msync.MetricsRegistry, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters[obs.MetricSessionsAdmitted] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("pinned connection never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	for time.Now().Before(deadline) {
		// A second idle dial that gets BUSY proves the slot is taken.
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(time.Second))
		typ, _, err := wire.NewFrameReader(c).ReadFrame()
		c.Close()
		if err == nil && typ == wire.FrameBusy {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("session slot never became occupied")
}

// tempAcceptErr simulates the transient failures (EMFILE, ECONNABORTED)
// that used to kill the accept loop.
type tempAcceptErr struct{}

func (tempAcceptErr) Error() string   { return "simulated transient accept failure" }
func (tempAcceptErr) Timeout() bool   { return false }
func (tempAcceptErr) Temporary() bool { return true }

// flakyListener fails its first n Accepts with a temporary error.
type flakyListener struct {
	net.Listener
	remaining atomic.Int64
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.remaining.Add(-1) >= 0 {
		return nil, tempAcceptErr{}
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesTemporaryErrors pins the accept-loop fix: before,
// the first transient Accept failure returned from ServeListener and the
// server went deaf. Now it backs off, counts the retries, and keeps
// serving.
func TestAcceptLoopSurvivesTemporaryErrors(t *testing.T) {
	serverFiles, clientFiles := sessionFiles()
	reg := msync.NewMetricsRegistry()
	srv, err := msync.NewServer(serverFiles, msync.DefaultConfig(), msync.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	const flakes = 3
	fl := &flakyListener{Listener: inner}
	fl.remaining.Store(flakes)
	go srv.ServeListener(fl)
	defer srv.Close()

	res, err := msync.NewClient(clientFiles).SyncTCP(inner.Addr().String())
	if err != nil {
		t.Fatalf("sync after transient accept errors: %v", err)
	}
	if err := corpus.VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters[obs.MetricAcceptRetries]; got != flakes {
		t.Fatalf("accept retries = %d, want %d", got, flakes)
	}
}

// TestShutdownShedsQueuedConns: a connection waiting in the admission queue
// when Shutdown begins is answered with BUSY and released — it neither gets
// served nor blocks the drain.
func TestShutdownShedsQueuedConns(t *testing.T) {
	serverFiles, _ := sessionFiles()
	reg := msync.NewMetricsRegistry()
	srv, err := msync.NewServer(serverFiles, msync.DefaultConfig(),
		msync.WithMaxSessions(1),
		msync.WithMaxQueued(4),
		msync.WithBusyRetryAfter(40*time.Millisecond),
		msync.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	go srv.ServeListener(l)

	// pin occupies the slot (admitted, then idle inside the handshake);
	// queued joins the wait queue behind it.
	pin, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()
	waitForOccupied := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters[obs.MetricSessionsAdmitted] < 1 {
		if time.Now().After(waitForOccupied) {
			t.Fatal("pin connection never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	queued, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer queued.Close()
	for reg.Snapshot().Gauges[obs.MetricSessionsQueued] < 1 {
		if time.Now().After(waitForOccupied) {
			t.Fatal("second connection never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(ctx) }()

	// The queued connection must now receive BUSY rather than wait forever.
	queued.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.NewFrameReader(queued).ReadFrame()
	if err != nil {
		t.Fatalf("reading shed answer: %v", err)
	}
	if typ != wire.FrameBusy {
		t.Fatalf("queued conn got frame %s, want BUSY", wire.FrameName(typ))
	}
	if hint := wire.DecodeBusy(payload).RetryAfter; hint != 40*time.Millisecond {
		t.Fatalf("shed hint = %v, want 40ms", hint)
	}
	queued.Close() // ends the shed path's input drain immediately

	// Release the pinned session so the graceful drain can finish.
	pin.Close()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown = %v, want nil (queued conn must not block drain)", err)
	}

	snap := reg.Snapshot()
	if shed := snap.Counters[obs.MetricSessionsShed]; shed < 1 {
		t.Errorf("shed counter = %d, want >= 1", shed)
	}
	if g := snap.Gauges[obs.MetricSessionsQueued]; g != 0 {
		t.Errorf("queued gauge = %d after shutdown, want 0", g)
	}
	if aborts := snap.Counters[obs.MetricClientAborts]; aborts != 1 {
		t.Errorf("client aborts = %d, want 1 (the pinned conn we closed)", aborts)
	}
}

// TestHandshakeTimeoutFreesSlot: an idle dial holding the only session slot
// is evicted by WithHandshakeTimeout, letting a queued legitimate client
// proceed — without the deadline this test would hang at the sync.
func TestHandshakeTimeoutFreesSlot(t *testing.T) {
	serverFiles, clientFiles := sessionFiles()
	reg := msync.NewMetricsRegistry()
	srv, err := msync.NewServer(serverFiles, msync.DefaultConfig(),
		msync.WithMaxSessions(1),
		msync.WithMaxQueued(2),
		msync.WithHandshakeTimeout(150*time.Millisecond),
		msync.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	go srv.ServeListener(l)
	defer srv.Close()

	loris, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters[obs.MetricSessionsAdmitted] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow-loris dial never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// This client queues behind the loris and must be admitted once the
	// handshake deadline evicts it.
	res, err := msync.NewClient(clientFiles).SyncTCP(l.Addr().String())
	if err != nil {
		t.Fatalf("sync behind a slow-loris dial: %v", err)
	}
	if err := corpus.VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
	if failsrv := reg.Snapshot().Counters[obs.MetricSessionFailures]; failsrv != 1 {
		t.Errorf("server-error counter = %d, want 1 (the evicted idle dial)", failsrv)
	}
}
