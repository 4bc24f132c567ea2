package transport

import "time"

// StreamDeadlines tracks one absolute deadline per multiplexed stream and
// reports the earliest. A multiplexed session shares one connection, so
// individual streams cannot carry their own I/O deadlines; instead the
// scheduler refreshes each live stream's deadline when that stream makes
// progress (Touch), drops finished streams (Drop), and installs
// Earliest() via Session.SetPhaseDeadline before every blocking read. The
// session's earliest-wins composition with the per-op timeout and the
// context deadline then guarantees that a single stalled stream fails the
// session within its round budget even while other streams are advancing.
//
// Owned by the session's protocol goroutine, like the phase deadline it
// feeds — not safe for concurrent use.
type StreamDeadlines struct {
	byStream map[int]time.Time
}

// NewStreamDeadlines returns an empty tracker.
func NewStreamDeadlines() *StreamDeadlines {
	return &StreamDeadlines{byStream: make(map[int]time.Time)}
}

// Touch records that stream id made progress: its deadline becomes t
// (typically now + the session's round timeout). A zero t removes any
// deadline for the stream without dropping it.
func (d *StreamDeadlines) Touch(id int, t time.Time) {
	if t.IsZero() {
		delete(d.byStream, id)
		return
	}
	d.byStream[id] = t
}

// Drop removes stream id from the tracker; finished streams must not hold
// the session to their last deadline.
func (d *StreamDeadlines) Drop(id int) { delete(d.byStream, id) }

// Earliest returns the earliest live deadline, or the zero time when no
// stream has one (meaning: no per-stream bound; the session falls back to
// its own opTimeout/context composition).
func (d *StreamDeadlines) Earliest() time.Time {
	var min time.Time
	for _, t := range d.byStream {
		if min.IsZero() || t.Before(min) {
			min = t
		}
	}
	return min
}
