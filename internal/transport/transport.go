// Package transport provides the connections the protocol engines run over:
// an unbounded in-memory duplex pipe (for tests, benchmarks and examples),
// fault injection over it, and the deadline and retry policy of a session.
package transport

import (
	"errors"
	"io"
	"os"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed pipe end.
var ErrClosed = errors.New("transport: pipe closed")

// buffer is an unbounded FIFO byte queue with blocking, deadline-aware reads.
type buffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	data   []byte
	closed bool
	// rdeadline bounds blocking reads from this buffer; wdeadline is checked
	// (never waited on — writes don't block) by writes into it.
	rdeadline time.Time
	rtimer    *time.Timer
	wdeadline time.Time
}

func newBuffer() *buffer {
	b := &buffer{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *buffer) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrClosed
	}
	if !b.wdeadline.IsZero() && !time.Now().Before(b.wdeadline) {
		return 0, os.ErrDeadlineExceeded
	}
	b.data = append(b.data, p...)
	b.cond.Broadcast()
	return len(p), nil
}

func (b *buffer) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.data) == 0 && !b.closed && !b.rexpired() {
		b.cond.Wait()
	}
	if b.rexpired() {
		return 0, os.ErrDeadlineExceeded
	}
	if len(b.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	if len(b.data) == 0 {
		b.data = nil // release the backing array
	}
	return n, nil
}

// rexpired reports whether the read deadline has passed (mu held).
func (b *buffer) rexpired() bool {
	return !b.rdeadline.IsZero() && !time.Now().Before(b.rdeadline)
}

// setReadDeadline installs t as the read deadline and arms a timer that wakes
// blocked readers when it fires. The zero time clears the deadline.
func (b *buffer) setReadDeadline(t time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rdeadline = t
	if b.rtimer != nil {
		b.rtimer.Stop()
		b.rtimer = nil
	}
	if t.IsZero() {
		return
	}
	d := time.Until(t)
	if d <= 0 {
		b.cond.Broadcast()
		return
	}
	b.rtimer = time.AfterFunc(d, func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
}

func (b *buffer) setWriteDeadline(t time.Time) {
	b.mu.Lock()
	b.wdeadline = t
	b.mu.Unlock()
}

func (b *buffer) close() {
	b.mu.Lock()
	b.closed = true
	if b.rtimer != nil {
		b.rtimer.Stop()
		b.rtimer = nil
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// PipeEnd is one end of an in-memory duplex pipe.
type PipeEnd struct {
	r, w *buffer
}

// Pipe returns two connected in-memory pipe ends. Unlike net.Pipe, writes
// never block, which removes any deadlock concern for half-duplex protocols
// driven from a single goroutine per side.
func Pipe() (a, b *PipeEnd) {
	ab := newBuffer()
	ba := newBuffer()
	return &PipeEnd{r: ba, w: ab}, &PipeEnd{r: ab, w: ba}
}

// Read implements io.Reader.
func (p *PipeEnd) Read(buf []byte) (int, error) { return p.r.read(buf) }

// Write implements io.Writer.
func (p *PipeEnd) Write(buf []byte) (int, error) { return p.w.write(buf) }

// Close closes both directions of this end. The peer's reads drain any
// buffered data and then see io.EOF.
func (p *PipeEnd) Close() error {
	p.w.close()
	p.r.close()
	return nil
}

// SetReadDeadline bounds blocking Reads on this end, with net.Conn
// semantics: a read past the deadline fails with os.ErrDeadlineExceeded and
// an already-blocked read is woken when the deadline fires. The zero time
// clears the deadline.
func (p *PipeEnd) SetReadDeadline(t time.Time) error {
	p.r.setReadDeadline(t)
	return nil
}

// SetWriteDeadline bounds Writes on this end. Pipe writes never block, so
// this only rejects writes attempted after the deadline.
func (p *PipeEnd) SetWriteDeadline(t time.Time) error {
	p.w.setWriteDeadline(t)
	return nil
}
