package transport

import (
	"testing"
	"time"
)

func TestStreamDeadlines(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	d := NewStreamDeadlines()
	if !d.Earliest().IsZero() {
		t.Fatal("empty tracker has a deadline")
	}

	d.Touch(0, base.Add(3*time.Second))
	d.Touch(1, base.Add(1*time.Second))
	d.Touch(2, base.Add(2*time.Second))
	if got := d.Earliest(); !got.Equal(base.Add(1 * time.Second)) {
		t.Fatalf("earliest = %v, want +1s", got)
	}
	if len(d.byStream) != 3 {
		t.Fatalf("len = %d, want 3", len(d.byStream))
	}

	// Progress on the tightest stream relaxes the session bound.
	d.Touch(1, base.Add(5*time.Second))
	if got := d.Earliest(); !got.Equal(base.Add(2 * time.Second)) {
		t.Fatalf("after touch: earliest = %v, want +2s", got)
	}

	// A finished stream must not keep holding the session to its deadline.
	d.Drop(2)
	if got := d.Earliest(); !got.Equal(base.Add(3 * time.Second)) {
		t.Fatalf("after drop: earliest = %v, want +3s", got)
	}

	// Zero-time Touch clears a stream's deadline without dropping progress
	// tracking semantics for the others.
	d.Touch(0, time.Time{})
	if got := d.Earliest(); !got.Equal(base.Add(5 * time.Second)) {
		t.Fatalf("after clear: earliest = %v, want +5s", got)
	}

	d.Drop(1)
	if !d.Earliest().IsZero() || len(d.byStream) != 0 {
		t.Fatalf("drained tracker: earliest=%v len=%d", d.Earliest(), len(d.byStream))
	}
}

// TestStreamDeadlinesComposeWithSession: the earliest per-stream deadline,
// installed as the session's phase deadline, interrupts a blocked read even
// though the session has a generous opTimeout — the earliest-wins rule from
// the handshake-deadline work extends to per-stream round budgets.
func TestStreamDeadlinesComposeWithSession(t *testing.T) {
	c, s := Pipe()
	defer c.Close()
	defer s.Close()

	sess := NewSession(t.Context(), c, 30*time.Second)
	defer sess.Release()

	d := NewStreamDeadlines()
	d.Touch(0, time.Now().Add(20*time.Millisecond))
	d.Touch(1, time.Now().Add(10*time.Second))
	sess.SetPhaseDeadline(d.Earliest())

	start := time.Now()
	buf := make([]byte, 1)
	_, err := sess.Read(buf) // peer never writes: stream 0 is stalled
	if err == nil {
		t.Fatal("read succeeded with no data")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("read blocked %v; per-stream deadline not applied", elapsed)
	}
}
