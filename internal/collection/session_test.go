package collection

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"msync/internal/core"
	"msync/internal/transport"
	"msync/internal/wire"
)

// sessionTestFiles returns a server/client pair with one changed file large
// enough to run the multi-round sync engine and to need a sizeable delta
// (several KB of novel content), so sessions cannot complete within a small
// fault budget.
func sessionTestFiles() (serverFiles, clientFiles map[string][]byte) {
	old := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 200)
	novel := make([]byte, 4096)
	for i := range novel {
		novel[i] = byte(i*7 + i>>3)
	}
	cur := append(append(append([]byte{}, old[:3000]...), novel...), old[5000:]...)
	return map[string][]byte{"f.txt": cur}, map[string][]byte{"f.txt": old}
}

// TestStalledServerRoundDeadline: a client whose peer never answers must
// fail the round with a deadline error within the configured round timeout,
// and the failure must be tagged retry-safe (handshake phase).
func TestStalledServerRoundDeadline(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	_, clientFiles := sessionTestFiles()
	c := NewClient(clientFiles)
	c.RoundTimeout = 100 * time.Millisecond

	start := time.Now()
	_, err := c.SyncContext(context.Background(), b)
	elapsed := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error from stalled peer, got %v", err)
	}
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("pre-verdict stall must be retry-safe (ErrHandshake), got %v", err)
	}
	if elapsed < 90*time.Millisecond {
		t.Fatalf("deadline fired after only %v, before the 100ms round timeout", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

// TestStalledMidSessionRoundDeadline: the server's link silently drops all
// output after a budget (a stall, not an error), so the client blocks
// mid-session until its round deadline fires.
func TestStalledMidSessionRoundDeadline(t *testing.T) {
	serverFiles, clientFiles := sessionTestFiles()
	srv, err := NewServer(serverFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	faulty := transport.NewFaultConn(a).DropAfter(250)
	srvDone := make(chan error, 1)
	go func() {
		_, err := srv.Serve(faulty)
		srvDone <- err
	}()

	c := NewClient(clientFiles)
	c.RoundTimeout = 100 * time.Millisecond
	start := time.Now()
	_, err = c.SyncContext(context.Background(), b)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error through the stalled link, got %v", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("client needed %v to notice the stall", el)
	}
	// The client gives up; closing its end reaps the server session too.
	b.Close()
	a.Close()
	select {
	case <-srvDone:
	case <-time.After(10 * time.Second):
		t.Fatal("server session leaked after client abandoned the sync")
	}
}

// TestSeveredMidFrame: the connection dies partway through a frame. Both
// sides must return errors promptly — no hang, no partial adoption.
func TestSeveredMidFrame(t *testing.T) {
	serverFiles, clientFiles := sessionTestFiles()
	srv, err := NewServer(serverFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	// 100 bytes lands inside the verdicts frame (config alone is ~60).
	faulty := transport.NewFaultConn(a).SeverAfter(100)
	srvDone := make(chan error, 1)
	go func() {
		_, err := srv.Serve(faulty)
		srvDone <- err
	}()

	cliDone := make(chan error, 1)
	go func() {
		_, err := NewClient(clientFiles).Sync(b)
		cliDone <- err
	}()

	for i := 0; i < 2; i++ {
		select {
		case err := <-cliDone:
			if err == nil {
				t.Fatal("client succeeded over a severed connection")
			}
		case err := <-srvDone:
			if err == nil {
				t.Fatal("server succeeded over a severed connection")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("severed session hung")
		}
	}
}

// TestClientCancellation: cancelling the context unblocks a client that is
// waiting on a silent peer, even with no round timeout configured.
func TestClientCancellation(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	_, clientFiles := sessionTestFiles()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := NewClient(clientFiles).SyncContext(ctx, b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v to take effect", el)
	}
}

// TestServerRoundDeadline: a server must not pin a goroutine on a client
// that handshakes and then goes silent.
func TestServerRoundDeadline(t *testing.T) {
	serverFiles, _ := sessionTestFiles()
	srv, err := NewServer(serverFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.RoundTimeout = 100 * time.Millisecond
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()

	// A client that says hello and then stalls.
	fw := wire.NewFrameWriter(b)
	hb := wire.NewBuffer(8)
	hb.Uvarint(protocolVersion)
	hb.Byte(rolePull)
	hb.Byte(modeManifest)
	if err := fw.WriteFrame(wire.FrameHello, hb.Build()); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = srv.ServeContext(context.Background(), a)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error from silent client, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("server needed %v to drop the silent client", el)
	}
}

// TestContextVariantsDelegate: the legacy entry points and their *Context
// twins produce identical results on a healthy link.
func TestContextVariantsDelegate(t *testing.T) {
	serverFiles, clientFiles := sessionTestFiles()
	for _, useCtx := range []bool{false, true} {
		srv, err := NewServer(serverFiles, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		a, b := transport.Pipe()
		go func() {
			defer a.Close()
			if useCtx {
				srv.ServeContext(context.Background(), a)
			} else {
				srv.Serve(a)
			}
		}()
		c := NewClient(clientFiles)
		var res *Result
		if useCtx {
			res, err = c.SyncContext(context.Background(), b)
		} else {
			res, err = c.Sync(b)
		}
		b.Close()
		if err != nil {
			t.Fatalf("useCtx=%v: %v", useCtx, err)
		}
		if err := VerifyAgainst(res.Files, serverFiles); err != nil {
			t.Fatalf("useCtx=%v: %v", useCtx, err)
		}
	}
}

// TestHandshakeDeadlineUnpinsIdleDial: a dial that connects and never sends
// HELLO must fail the server session once the handshake deadline fires —
// even with no round timeout configured — so admission slots cannot be
// pinned by slow-loris peers.
func TestHandshakeDeadlineUnpinsIdleDial(t *testing.T) {
	serverFiles, _ := sessionTestFiles()
	srv, err := NewServer(serverFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.HandshakeTimeout = 150 * time.Millisecond

	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close() // the "client": connected, forever silent

	start := time.Now()
	_, err = srv.ServeContext(context.Background(), a)
	elapsed := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error from silent dial, got %v", err)
	}
	if elapsed < 140*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("handshake deadline fired after %v, configured 150ms", elapsed)
	}
}

// TestHandshakeDeadlineLiftedAfterVerdicts: once the handshake completes,
// the deadline must not abort a session whose transfer legitimately
// outlives it. The client is throttled so each round takes real time and
// the whole session comfortably exceeds the handshake budget.
func TestHandshakeDeadlineLiftedAfterVerdicts(t *testing.T) {
	serverFiles, clientFiles := sessionTestFiles()
	srv, err := NewServer(serverFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.HandshakeTimeout = 250 * time.Millisecond

	a, b := transport.Pipe()
	srvDone := make(chan error, 1)
	go func() {
		_, err := srv.ServeContext(context.Background(), a)
		a.Close()
		srvDone <- err
	}()

	c := NewClient(clientFiles)
	res, err := c.SyncContext(context.Background(), &throttledConn{PipeEnd: b, delay: 60 * time.Millisecond})
	b.Close()
	if err != nil {
		t.Fatalf("throttled sync failed: %v", err)
	}
	if err := <-srvDone; err != nil {
		t.Fatalf("server session failed after handshake: %v", err)
	}
	if err := VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
}

// throttledConn delays every write, stretching the session without ever
// stalling it.
type throttledConn struct {
	*transport.PipeEnd
	delay time.Duration
}

func (c *throttledConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.PipeEnd.Write(p)
}

// TestBusyAnswerIsTypedAndRetrySafe: a client whose dial is answered with
// BUSY gets a *wire.BusyError carrying the retry-after hint, tagged as a
// handshake-phase (retry-safe) failure.
func TestBusyAnswerIsTypedAndRetrySafe(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	go func() {
		fw := wire.NewFrameWriter(a)
		_ = fw.WriteFrame(wire.FrameBusy, wire.EncodeBusy(750*time.Millisecond))
		_ = fw.Flush()
	}()

	_, clientFiles := sessionTestFiles()
	_, err := NewClient(clientFiles).SyncContext(context.Background(), b)
	b.Close()
	var busy *wire.BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("want BusyError, got %v", err)
	}
	if busy.RetryAfter != 750*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 750ms", busy.RetryAfter)
	}
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("busy refusal must be retry-safe (ErrHandshake), got %v", err)
	}
}

// TestBusyAnswerTreeMode: the same classification holds for tree-manifest
// clients, whose first expected frame is TREE rather than VERDICTS.
func TestBusyAnswerTreeMode(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	go func() {
		fw := wire.NewFrameWriter(a)
		_ = fw.WriteFrame(wire.FrameBusy, wire.EncodeBusy(time.Second))
		_ = fw.Flush()
	}()

	_, clientFiles := sessionTestFiles()
	c := NewClient(clientFiles)
	c.TreeManifest = true
	_, err := c.SyncContext(context.Background(), b)
	b.Close()
	var busy *wire.BusyError
	if !errors.As(err, &busy) || busy.RetryAfter != time.Second {
		t.Fatalf("tree-mode busy = %v, want BusyError{1s}", err)
	}
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("tree-mode busy must be ErrHandshake, got %v", err)
	}
}

// TestSessionExpect: the frame due is returned; an ERROR in its place
// surfaces the remote message, a BUSY decodes to a *wire.BusyError that retry
// loops recognise, and any other frame is a protocol error naming it.
func TestSessionExpect(t *testing.T) {
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	fw.WriteFrame(wire.FrameAck, []byte("ok"))
	fw.WriteFrame(wire.FrameError, []byte("boom"))
	fw.WriteFrame(wire.FrameBusy, wire.EncodeBusy(2*time.Second))
	fw.WriteFrame(wire.FrameDone, nil)
	fw.Flush()
	s := &session{fr: wire.NewFrameReader(&buf)}
	if p, err := s.expect(wire.FrameAck, wire.MaxFrameSize); err != nil || string(p) != "ok" {
		t.Fatalf("p=%q err=%v", p, err)
	}
	if _, err := s.expect(wire.FrameAck, wire.MaxFrameSize); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("ERROR frame: %v, want the remote message", err)
	}
	var busy *wire.BusyError
	if _, err := s.expect(wire.FrameVerdicts, wire.MaxFrameSize); !errors.As(err, &busy) || busy.RetryAfter != 2*time.Second {
		t.Fatalf("BUSY frame: %v, want BusyError{2s}", err)
	}
	if _, err := s.expect(wire.FrameDelta, wire.MaxFrameSize); !errors.Is(err, core.ErrProtocol) || !strings.Contains(err.Error(), "DONE") {
		t.Fatalf("DONE in place of DELTA: %v, want a protocol error naming DONE", err)
	}
}
