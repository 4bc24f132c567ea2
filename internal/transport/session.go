package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// deadlineSetter is the subset of net.Conn the session layer needs to
// interrupt blocked I/O. net.Conn and *PipeEnd both implement it.
type deadlineSetter interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// Session wraps a connection with context cancellation and a per-operation
// timeout, giving the frame-level protocol loops their round checkpoints:
//
//   - every Read/Write first checks the context, so a cancelled session
//     stops at the next frame boundary even on connections without
//     deadline support;
//   - when the connection supports deadlines (net.Conn, *PipeEnd), each
//     operation carries a deadline of min(now+OpTimeout, context deadline),
//     so a stalled peer fails the round instead of hanging forever;
//   - a watcher goroutine forces an immediate deadline when the context is
//     cancelled, waking I/O that is already blocked.
//
// Callers must Release the session when done to stop the watcher and clear
// the connection's deadlines.
type Session struct {
	ctx       context.Context
	rw        io.ReadWriter
	ds        deadlineSetter // nil when rw has no deadline support
	opTimeout time.Duration

	// phaseDeadline, when non-zero, caps every operation's effective
	// deadline in addition to opTimeout and the context deadline; phase
	// names it in the error it ends a session with. A serving session bounds
	// its handshake with one, so an idle or slow-loris dial cannot pin a
	// session slot, and each multiplexed cycle with another. Owned by the
	// session's protocol goroutine (never touched by the watcher), so plain
	// fields.
	phaseDeadline time.Time
	phase         string

	stop     chan struct{}
	stopOnce sync.Once

	// I/O counters for observability; atomics so a reader can snapshot
	// them while the watcher or another half of a duplex caller is active.
	reads, writes           atomic.Int64
	bytesRead, bytesWritten atomic.Int64
}

// IOStats is a snapshot of a session's transport-level activity.
type IOStats struct {
	// Reads and Writes count individual I/O operations (syscalls for TCP).
	Reads, Writes int64
	// BytesRead and BytesWritten are raw connection bytes, framing included.
	BytesRead, BytesWritten int64
}

// Stats snapshots the session's I/O counters.
func (s *Session) Stats() IOStats {
	return IOStats{
		Reads:        s.reads.Load(),
		Writes:       s.writes.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

// NewSession wraps rw for the given context. opTimeout, if positive, bounds
// each individual Read/Write (one protocol round is one write plus one read,
// so it acts as a per-round timeout). A zero opTimeout leaves operations
// bounded only by the context.
func NewSession(ctx context.Context, rw io.ReadWriter, opTimeout time.Duration) *Session {
	s := &Session{ctx: ctx, rw: rw, opTimeout: opTimeout}
	if ds, ok := rw.(deadlineSetter); ok {
		s.ds = ds
		if ctx.Done() != nil {
			s.stop = make(chan struct{})
			go func() {
				select {
				case <-ctx.Done():
					// Wake any blocked operation immediately.
					_ = ds.SetReadDeadline(time.Unix(1, 0))
					_ = ds.SetWriteDeadline(time.Unix(1, 0))
				case <-s.stop:
				}
			}()
		}
	}
	return s
}

// Release stops the cancellation watcher and clears any deadlines the
// session installed on the connection. Safe to call more than once.
func (s *Session) Release() {
	s.stopOnce.Do(func() {
		if s.stop != nil {
			close(s.stop)
		}
		if s.ds != nil && s.ctx.Err() == nil {
			_ = s.ds.SetReadDeadline(time.Time{})
			_ = s.ds.SetWriteDeadline(time.Time{})
		}
	})
}

// SetPhaseDeadline installs an absolute deadline for the named phase
// ("handshake", "round"), applied to every subsequent operation until cleared
// with the zero time. It composes with the per-operation timeout and the
// context deadline: the earliest wins, and an operation it ends fails with
// "transport: <phase> deadline exceeded", wrapping os.ErrDeadlineExceeded.
// Effective only on connections with deadline support; call it from the
// session's own protocol goroutine.
func (s *Session) SetPhaseDeadline(phase string, t time.Time) {
	s.phase, s.phaseDeadline = phase, t
}

// Read implements io.Reader with context and round-timeout checks.
func (s *Session) Read(p []byte) (int, error) { return s.do(p, true) }

// Write implements io.Writer with context and round-timeout checks.
func (s *Session) Write(p []byte) (int, error) { return s.do(p, false) }

func (s *Session) do(p []byte, read bool) (int, error) {
	if err := s.ctx.Err(); err != nil {
		return 0, fmt.Errorf("transport: session: %w", err)
	}
	if s.ds != nil {
		var dl time.Time
		if s.opTimeout > 0 {
			dl = time.Now().Add(s.opTimeout)
		}
		if cd, ok := s.ctx.Deadline(); ok && (dl.IsZero() || cd.Before(dl)) {
			dl = cd
		}
		if !s.phaseDeadline.IsZero() && (dl.IsZero() || s.phaseDeadline.Before(dl)) {
			dl = s.phaseDeadline
		}
		if read {
			_ = s.ds.SetReadDeadline(dl)
		} else {
			_ = s.ds.SetWriteDeadline(dl)
		}
	}
	var n int
	var err error
	if read {
		n, err = s.rw.Read(p)
		s.reads.Add(1)
		s.bytesRead.Add(int64(n))
	} else {
		n, err = s.rw.Write(p)
		s.writes.Add(1)
		s.bytesWritten.Add(int64(n))
	}
	if err != nil {
		// Attribute the failure: a cancelled context beats the raw I/O
		// error (the watcher produces deadline errors as a side effect of
		// cancellation), and a deadline hit under an opTimeout is reported
		// as a round timeout.
		if cerr := s.ctx.Err(); cerr != nil {
			return n, fmt.Errorf("transport: session: %w", cerr)
		}
		if !s.phaseDeadline.IsZero() && errors.Is(err, os.ErrDeadlineExceeded) && !time.Now().Before(s.phaseDeadline) {
			return n, fmt.Errorf("transport: %s deadline exceeded: %w", s.phase, err)
		}
		if s.opTimeout > 0 && errors.Is(err, os.ErrDeadlineExceeded) {
			return n, fmt.Errorf("transport: round timeout after %v: %w", s.opTimeout, err)
		}
	}
	return n, err
}

// Clock abstracts wall-clock time so retry/backoff schedules can be tested
// without real sleeping.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func (systemClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// SystemClock is the real-time Clock used outside tests.
var SystemClock Clock = systemClock{}

// FakeClock is a test Clock: Sleep returns immediately, advancing Now by the
// requested duration and recording it.
type FakeClock struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

// NewFakeClock returns a FakeClock starting at t.
func NewFakeClock(t time.Time) *FakeClock { return &FakeClock{now: t} }

// Now reports the fake current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep records d, advances the fake time, and returns without blocking.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return nil
}

// Slept returns a copy of the recorded sleep durations.
func (c *FakeClock) Slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}
