package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval: a call from the benchmark into a layer, or a
// protocol phase reported by the public tracer. Parent is the ID of the span
// that caused it (0 for a root); the spans of one session share Session.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
}

// recorder keeps spans in memory until the workload ends. A nil recorder is
// tracing switched off: every method is a no-op, so the measured loop pays
// a nil check per boundary and nothing else.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, session int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Start: now, Parent: parent, Session: session})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a tracer event).
func (r *recorder) add(name string, start, end time.Time, parent, session int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Parent: parent, Session: session})
	r.mu.Unlock()
}

// total sums the durations of all spans with the given name, in seconds, and
// counts them.
func (r *recorder) total(name string) (secs float64, n int) {
	for _, s := range r.spans {
		if s.Name == name {
			secs += float64(s.End-s.Start) / 1e9
			n++
		}
	}
	return secs, n
}

// writeJSONL writes the spans, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meterConn wraps one end of the session's pipe. It always counts the bytes
// each way — the cross-check of Costs' wire totals — and, in a traced run
// only, the time its reads spent waiting for the peer.
type meterConn struct {
	inner    io.ReadWriter
	timed    bool
	read     atomic.Int64
	written  atomic.Int64
	readWait atomic.Int64 // ns
}

func (c *meterConn) Read(p []byte) (int, error) {
	if !c.timed {
		n, err := c.inner.Read(p)
		c.read.Add(int64(n))
		return n, err
	}
	t0 := time.Now()
	n, err := c.inner.Read(p)
	c.readWait.Add(int64(time.Since(t0)))
	c.read.Add(int64(n))
	return n, err
}

func (c *meterConn) Write(p []byte) (int, error) {
	n, err := c.inner.Write(p)
	c.written.Add(int64(n))
	return n, err
}
