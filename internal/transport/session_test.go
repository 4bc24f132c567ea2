package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPipeReadDeadline(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	buf := make([]byte, 1)
	_, err := b.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline fired after %v", el)
	}
	// Clearing the deadline makes the end usable again.
	b.SetReadDeadline(time.Time{})
	a.Write([]byte("x"))
	if _, err := b.Read(buf); err != nil {
		t.Fatalf("read after clearing deadline: %v", err)
	}
}

func TestPipeDeadlineWakesBlockedRead(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := b.Read(buf)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read block
	b.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	select {
	case err := <-errc:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("want deadline error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked read was not woken by the deadline")
	}
}

func TestSessionContextCancelUnblocksRead(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSession(ctx, b, 0)
	defer s.Release()
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := s.Read(buf)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the read")
	}
}

func TestSessionRoundTimeout(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	s := NewSession(context.Background(), b, 40*time.Millisecond)
	defer s.Release()
	start := time.Now()
	buf := make([]byte, 1)
	_, err := s.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("round timeout fired after %v", el)
	}
	// Writes from the healthy peer after the timeout are a fresh round.
	a.Write([]byte("y"))
	if _, err := s.Read(buf); err != nil || buf[0] != 'y' {
		t.Fatalf("next round read: %v %q", err, buf)
	}
}

// TestSessionPhaseDeadline: a phase deadline cuts a blocked read short even
// though the session has a generous op timeout — the earliest wins — and the
// error names the phase the deadline was set for.
func TestSessionPhaseDeadline(t *testing.T) {
	c, s := Pipe()
	defer c.Close()
	defer s.Close()
	sess := NewSession(t.Context(), c, 30*time.Second)
	defer sess.Release()
	sess.SetPhaseDeadline("round", time.Now().Add(20*time.Millisecond))

	start := time.Now()
	_, err := sess.Read(make([]byte, 1)) // the peer never writes
	if !errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), "transport: round deadline exceeded") {
		t.Fatalf("want the round deadline, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("read blocked %v; phase deadline not applied", elapsed)
	}
}

func TestSessionPlainReadWriterChecksContext(t *testing.T) {
	// A bare bytes-less ReadWriter (no deadline support): the session still
	// refuses operations once the context is done.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var rw plainRW
	s := NewSession(ctx, &rw, time.Second)
	defer s.Release()
	if _, err := s.Write([]byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context error, got %v", err)
	}
}

type plainRW struct{}

func (plainRW) Read(p []byte) (int, error)  { return 0, io.EOF }
func (plainRW) Write(p []byte) (int, error) { return len(p), nil }

func TestFaultConnSeverMidFrame(t *testing.T) {
	a, b := Pipe()
	f := NewFaultConn(a).SeverAfter(5)
	if n, err := f.Write([]byte("abc")); n != 3 || err != nil {
		t.Fatalf("pre-trigger write: %d %v", n, err)
	}
	n, err := f.Write([]byte("defgh"))
	if n != 2 || !errors.Is(err, ErrSevered) {
		t.Fatalf("severing write: n=%d err=%v", n, err)
	}
	// The peer drains the 5 delivered bytes, then hits EOF.
	buf := make([]byte, 5)
	if _, err := io.ReadFull(b, buf); err != nil || string(buf) != "abcde" {
		t.Fatalf("prefix: %q %v", buf, err)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Fatalf("want EOF after sever, got %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrSevered) {
		t.Fatalf("write after sever: %v", err)
	}
}

func TestFaultConnDropStallsPeer(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	f := NewFaultConn(a).DropAfter(4)
	if n, err := f.Write([]byte("123456")); n != 6 || err != nil {
		t.Fatalf("dropping write must report success: %d %v", n, err)
	}
	if n, err := f.Write([]byte("789")); n != 3 || err != nil {
		t.Fatalf("fully dropped write must report success: %d %v", n, err)
	}
	if f.Written() != 9 {
		t.Fatalf("Written = %d, want 9", f.Written())
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(b, buf); err != nil || string(buf) != "1234" {
		t.Fatalf("delivered prefix: %q %v", buf, err)
	}
	// Nothing further arrives: the peer's read deadline fires.
	b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := b.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("peer should stall then time out, got %v", err)
	}
}

func TestBackoffDelaySchedule(t *testing.T) {
	p := BackoffPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 400 * time.Millisecond, Multiplier: 2}
	for i, want := range []time.Duration{100, 200, 400, 400} {
		if got := p.Delay(i+1, nil); got != want*time.Millisecond {
			t.Fatalf("attempt %d: delay %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
}

func TestBackoffJitterBoundsAndDeterminism(t *testing.T) {
	p := BackoffPolicy{BaseDelay: 100 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
	rng := rand.New(rand.NewSource(7))
	var first []time.Duration
	for i := 1; i <= 6; i++ {
		d := p.Delay(i, rng)
		nominal := time.Duration(float64(100*time.Millisecond) * pow2(i-1))
		lo, hi := nominal/2, nominal+nominal/2
		if d < lo || d > hi {
			t.Fatalf("attempt %d: delay %v outside jitter bounds [%v, %v]", i, d, lo, hi)
		}
		first = append(first, d)
	}
	// Same seed → identical sequence.
	rng2 := rand.New(rand.NewSource(7))
	for i := 1; i <= 6; i++ {
		if d := p.Delay(i, rng2); d != first[i-1] {
			t.Fatalf("seeded jitter not deterministic at attempt %d", i)
		}
	}
}

func pow2(n int) float64 {
	f := 1.0
	for i := 0; i < n; i++ {
		f *= 2
	}
	return f
}

func TestRetryBoundedAttemptsWithJitter(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	p := BackoffPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, Multiplier: 2, Jitter: 0.5, Seed: 42}
	calls := 0
	err := Retry(context.Background(), clock, p, func(n int) error {
		calls++
		if n != calls {
			t.Fatalf("attempt numbering: got %d, want %d", n, calls)
		}
		return fmt.Errorf("attempt %d failed", n)
	})
	if err == nil || calls != 4 {
		t.Fatalf("want 4 failed attempts, got calls=%d err=%v", calls, err)
	}
	slept := clock.Slept()
	if len(slept) != 3 {
		t.Fatalf("want 3 backoff sleeps, got %v", slept)
	}
	for i, d := range slept {
		nominal := time.Duration(float64(100*time.Millisecond) * pow2(i))
		if d < nominal/2 || d > nominal+nominal/2 {
			t.Fatalf("sleep %d = %v outside jitter bounds around %v", i, d, nominal)
		}
	}
	// Deterministic: the same seed reproduces the same schedule.
	clock2 := NewFakeClock(time.Unix(0, 0))
	Retry(context.Background(), clock2, p, func(int) error { return errors.New("x") })
	s2 := clock2.Slept()
	for i := range slept {
		if slept[i] != s2[i] {
			t.Fatalf("seeded retry schedule not reproducible: %v vs %v", slept, s2)
		}
	}
}

func TestRetrySuccessAndPermanent(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	p := BackoffPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1}
	calls := 0
	err := Retry(context.Background(), clock, p, func(n int) error {
		calls++
		if n < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("want success on attempt 3, got calls=%d err=%v", calls, err)
	}

	boom := errors.New("bad config")
	calls = 0
	err = Retry(context.Background(), clock, p, func(int) error {
		calls++
		return Permanent(boom)
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("permanent error must stop retries: calls=%d err=%v", calls, err)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := BackoffPolicy{MaxAttempts: 10, BaseDelay: time.Hour}
	calls := 0
	err := Retry(ctx, SystemClock, p, func(int) error {
		calls++
		cancel() // cancel during the first attempt; the sleep must abort
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("want cancellation after 1 attempt, got calls=%d err=%v", calls, err)
	}
}
