package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span phases emitted by the protocol layers. Collection sessions emit one
// handshake span (hello, change detection, verdicts), one span per
// map-construction round, one per group-verification pass, one delta span,
// an optional full-transfer span, and a closing session summary.
const (
	PhaseHandshake = "handshake"
	PhaseRound     = "round"
	PhaseVerify    = "verify"
	PhaseDelta     = "delta"
	PhaseFull      = "full"
	PhaseSession   = "session"
	// PhaseTree covers one merkle-descent roundtrip of tree-manifest
	// change detection (the Event.Round field carries the descent round).
	PhaseTree = "tree"
	// PhasePublish covers one publish-mode snapshot (internal/pubsig): the
	// origin's once-per-version artifact computation.
	PhasePublish = "publish"
	// PhaseFetch covers one published file's reconciliation on a
	// publish-mode reader: signature download, local matching and range
	// fetches (or a whole-blob fallback).
	PhaseFetch = "fetch"
)

// Event is one span-like trace record: a protocol phase with its frame and
// byte counts and wall time. BytesUp is traffic sent toward the data holder
// (the client→server direction of a pull), BytesDown traffic from it; both
// include frame headers, so summing a session's spans reproduces the
// stats.Costs wire totals exactly.
type Event struct {
	// Time is when the span ended (events are emitted on completion).
	Time time.Time `json:"t"`
	// Session correlates the spans of one sync session (NextSessionID).
	Session uint64 `json:"session"`
	// Side is the emitting role: "client", "server", or "core" for the
	// in-process driver.
	Side string `json:"side,omitempty"`
	// Phase is one of the Phase* constants.
	Phase string `json:"phase"`
	// Round numbers map-construction rounds (1-based); 0 for phases that
	// are not per-round.
	Round int `json:"round,omitempty"`
	// Frames counts wire frames exchanged during the span (both directions).
	Frames int `json:"frames,omitempty"`
	// BytesUp and BytesDown are the span's wire bytes including framing.
	BytesUp   int64 `json:"bytes_up,omitempty"`
	BytesDown int64 `json:"bytes_down,omitempty"`
	// Dur is the span's wall time.
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Mode names the session's map-construction mode ("cdc"); empty for
	// the default recursive halving.
	Mode string `json:"mode,omitempty"`
	// Err carries the session error on a failed PhaseSession event.
	Err string `json:"err,omitempty"`
	// Note names a fallback or choice the span took, e.g.
	// "journal_miss:version_unknown" on the handshake span of a session the
	// journal could not serve, or "MANIFEST_PACKED: packed 60383, legacy
	// 117002" on a receiver's.
	Note string `json:"note,omitempty"`
}

// Tracer receives protocol span events. Implementations must be safe for
// concurrent use: parallel sessions may share one Tracer.
type Tracer interface {
	Emit(Event)
}

// sessionIDs is the process-wide session counter behind NextSessionID.
var sessionIDs atomic.Uint64

// NextSessionID returns a process-unique id for correlating the events of
// one sync session.
func NextSessionID() uint64 { return sessionIDs.Add(1) }

// Ring is an in-memory Tracer keeping the most recent events in a fixed
// ring buffer — the test and debugging tracer.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int
}

// NewRing returns a ring tracer holding up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Emit implements Tracer.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total reports how many events were ever emitted (retained or not).
func (r *Ring) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Reset clears the ring.
func (r *Ring) Reset() {
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.next = 0
	r.total = 0
	r.mu.Unlock()
}

// JSONL is a Tracer writing one JSON object per event to a stream — the
// CLI's -trace-out format. Write errors are sticky and inspectable via Err;
// emission never fails the session.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer // nil when the writer is not owned
	err error
}

// NewJSONL returns a JSONL tracer over w. The caller keeps ownership of w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// OpenJSONL creates (or truncates) path and returns a JSONL tracer that owns
// the file; Close releases it.
func OpenJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &JSONL{w: f, c: f}, nil
}

// Emit implements Tracer.
func (t *JSONL) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	b = append(b, '\n')
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}

// Err reports the first write/encode error, if any.
func (t *JSONL) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close closes the underlying file when the tracer owns one.
func (t *JSONL) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.c == nil {
		return t.err
	}
	cerr := t.c.Close()
	t.c = nil
	if t.err != nil {
		return t.err
	}
	return cerr
}
