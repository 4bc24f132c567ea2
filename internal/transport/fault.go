package transport

import (
	"errors"
	"sync"
)

// ErrSevered is returned by writes to a FaultConn after its sever trigger
// fired.
var ErrSevered = errors.New("transport: connection severed")

// FaultConn wraps one end of an in-memory pipe and injects link failures for
// robustness tests. Triggers are expressed in cumulative bytes written
// through this end, so a fault can be placed precisely in the middle of a
// wire frame:
//
//   - SeverAfter: deliver the first n bytes, then close both ends — the peer
//     sees the prefix and then an unexpected EOF mid-frame;
//   - DropAfter: deliver the first n bytes, then silently discard the rest
//     while reporting success — the peer observes a stalled connection
//     (its read deadline, not an error, ends the session).
//
// Deadline methods are inherited from the embedded PipeEnd, so a FaultConn
// composes with Session round timeouts.
type FaultConn struct {
	*PipeEnd

	mu         sync.Mutex
	written    int
	severAfter int // -1 = disabled
	dropAfter  int // -1 = disabled
}

// NewFaultConn wraps p with no faults armed.
func NewFaultConn(p *PipeEnd) *FaultConn {
	return &FaultConn{PipeEnd: p, severAfter: -1, dropAfter: -1}
}

// SeverAfter arms an abrupt close of both ends once n total bytes have been
// written through this end.
func (f *FaultConn) SeverAfter(n int) *FaultConn {
	f.mu.Lock()
	f.severAfter = n
	f.mu.Unlock()
	return f
}

// DropAfter arms silent discarding of everything past the first n written
// bytes, making this end look stalled to the peer.
func (f *FaultConn) DropAfter(n int) *FaultConn {
	f.mu.Lock()
	f.dropAfter = n
	f.mu.Unlock()
	return f
}

// Write implements io.Writer, applying the armed faults in byte order.
func (f *FaultConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()

	// Sever: deliver the allowed prefix, then cut the link.
	if f.severAfter >= 0 {
		if f.written >= f.severAfter {
			return 0, ErrSevered
		}
		allowed := f.severAfter - f.written
		if allowed >= len(p) {
			n, err := f.PipeEnd.Write(p)
			f.written += n
			return n, err
		}
		n, _ := f.PipeEnd.Write(p[:allowed])
		f.written += n
		f.PipeEnd.Close()
		return n, ErrSevered
	}

	// Drop: deliver the allowed prefix, pretend the rest was sent.
	if f.dropAfter >= 0 {
		if f.written >= f.dropAfter {
			f.written += len(p)
			return len(p), nil
		}
		allowed := f.dropAfter - f.written
		if allowed > len(p) {
			allowed = len(p)
		}
		if n, err := f.PipeEnd.Write(p[:allowed]); err != nil {
			f.written += n
			return n, err
		}
		f.written += len(p)
		return len(p), nil
	}

	n, err := f.PipeEnd.Write(p)
	f.written += n
	return n, err
}

// Written reports the cumulative bytes written through this end (including
// dropped bytes).
func (f *FaultConn) Written() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}
