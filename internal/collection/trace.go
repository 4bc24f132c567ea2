package collection

import (
	"fmt"
	"log/slog"
	"time"

	"msync/internal/core"
	"msync/internal/obs"
	"msync/internal/stats"
)

// sessTrace threads the optional observability hooks through one session:
// span-like trace events per protocol phase and a structured log line at
// session end. It shadows the session's cost accounting — every call that
// adds bytes to stats.Costs goes through it — so a session's emitted spans
// sum exactly to the Costs wire totals, by construction.
//
// A nil *sessTrace is the disabled state: every method is nil-receiver safe
// and falls through to plain cost accounting, so sessions without a tracer
// or logger allocate nothing and behave identically.
type sessTrace struct {
	tr   obs.Tracer
	log  *slog.Logger
	sid  uint64
	side string // "client" or "server"
	mode core.MapMode

	// Current span.
	phase  string
	round  int
	start  time.Time
	frames int
	up     int64  // toward the data holder (stats.C2S)
	down   int64  // from the data holder (stats.S2C)
	note   string // a fallback or choice the span took (obs.Event.Note)

	// Session totals.
	totFrames int
	totUp     int64
	totDown   int64
}

// newSessTrace starts tracing one session, or returns nil when neither a
// tracer nor a logger is configured.
func newSessTrace(tr obs.Tracer, log *slog.Logger, side string) *sessTrace {
	if tr == nil && log == nil {
		return nil
	}
	st := &sessTrace{
		tr:    tr,
		log:   obs.OrNop(log),
		sid:   obs.NextSessionID(),
		side:  side,
		phase: obs.PhaseHandshake,
		start: time.Now(),
	}
	st.log.Debug("msync: session start", "session", st.sid, "side", side)
	return st
}

// begin switches to a new span, flushing the current one. Re-entering the
// same (phase, round) is a no-op, so loops may call it per iteration and
// still produce one span per phase.
func (t *sessTrace) begin(phase string, round int) {
	if t == nil || (t.phase == phase && t.round == round) {
		return
	}
	t.flush()
	t.phase = phase
	t.round = round
	t.start = time.Now()
}

// flush emits the current span if it carried any traffic.
func (t *sessTrace) flush() {
	if t.frames == 0 && t.up == 0 && t.down == 0 {
		return
	}
	t.emit(obs.Event{
		Phase:     t.phase,
		Round:     t.round,
		Frames:    t.frames,
		BytesUp:   t.up,
		BytesDown: t.down,
		Dur:       time.Since(t.start),
		Note:      t.note,
	})
	t.frames = 0
	t.up = 0
	t.down = 0
	t.note = ""
}

// fellBack is the one log line of a session that took a fallback — msg with
// attrs — and its note on the current span: a journal miss
// ("journal_miss:<reason>"), a refused map mode ("map_mode_refused:<reason>"
// on the holder, "map_mode_not_granted" on the receiver),
// failed sum groups ("sum_groups_failed:<n>"), a table the holder could not
// peel ("table_peel_failed").
func (t *sessTrace) fellBack(note, msg string, attrs ...any) {
	if t == nil {
		return
	}
	t.addNote(note)
	t.log.Info(msg, append([]any{"session", t.sid}, attrs...)...)
}

// manifestSent notes on the receiver's handshake span which frame its flat
// manifest goes in, with the three encodings' sizes: the choice is never
// silent.
func (t *sessTrace) manifestSent(frame string, short, packed, legacy int) {
	if t != nil {
		t.addNote(fmt.Sprintf("%s: short %d, packed %d, legacy %d", frame, short, packed, legacy))
	}
}

// addNote appends n to the current span's note.
func (t *sessTrace) addNote(n string) {
	if t.note != "" {
		n = t.note + "; " + n
	}
	t.note = n
}

// setMode records the session's negotiated map-construction mode; spans
// emitted from then on carry it. Nil-receiver safe like every other method.
func (t *sessTrace) setMode(m core.MapMode) {
	if t == nil {
		return
	}
	t.mode = m
}

// emit stamps and sends one event.
func (t *sessTrace) emit(e obs.Event) {
	if t.tr == nil {
		return
	}
	e.Time = time.Now()
	e.Session = t.sid
	e.Side = t.side
	if t.mode != core.MapHalving {
		e.Mode = t.mode.String()
	}
	t.tr.Emit(e)
}

// cost accounts one frame: payload plus framing into costs (exactly what
// the plain addCost helper does) and into the current span.
func (t *sessTrace) cost(c *stats.Costs, d stats.Direction, p stats.Phase, payload int) {
	addCost(c, d, p, payload)
	if t == nil {
		return
	}
	t.frames++
	t.totFrames++
	t.addBytes(d, int64(payload+frameOverhead(payload)))
}

// raw accounts bytes that are part of an already-counted frame (the
// full-phase slice of a split verdict frame): no framing, no frame count.
func (t *sessTrace) raw(c *stats.Costs, d stats.Direction, p stats.Phase, n int) {
	c.Add(d, p, n)
	if t == nil {
		return
	}
	t.addBytes(d, int64(n))
}

// verdictCost accounts the one frame whose payload is split across phases:
// the full payloads it carries count as PhaseFull, journal delta payloads as
// PhaseDelta, and everything else — verdict bytes, lengths, and the framing
// of the whole frame, whose length varint can be longer than the control
// share alone would need — as control.
func (t *sessTrace) verdictCost(c *stats.Costs, frame, fullBytes, deltaBytes int) {
	ctrl := frame - fullBytes - deltaBytes
	t.cost(c, stats.S2C, stats.PhaseControl, ctrl)
	t.raw(c, stats.S2C, stats.PhaseControl, frameOverhead(frame)-frameOverhead(ctrl))
	t.raw(c, stats.S2C, stats.PhaseFull, fullBytes)
	if deltaBytes > 0 {
		t.raw(c, stats.S2C, stats.PhaseDelta, deltaBytes)
	}
}

func (t *sessTrace) addBytes(d stats.Direction, n int64) {
	if d == stats.C2S {
		t.up += n
		t.totUp += n
	} else {
		t.down += n
		t.totDown += n
	}
}

// stream folds one closed multiplexed stream's traffic into the session
// totals and emits its span. Like every trace call it comes from the
// session's scheduler goroutine: the framer accounts stream frames there,
// never in the streams' concurrent handlers.
func (t *sessTrace) stream(l *streamLink) {
	if t == nil {
		return
	}
	t.totFrames += l.frames
	t.totUp += l.up
	t.totDown += l.down
	t.emit(obs.Event{
		Phase:     obs.PhaseStream,
		Stream:    l.id + 1,
		Frames:    l.frames,
		BytesUp:   l.up,
		BytesDown: l.down,
		Dur:       time.Since(l.start),
	})
}

// end closes the session: flushes the last span, emits the session summary
// event, and writes the structured session log line with the transport- and
// wire-level counters.
func (t *sessTrace) end(s *session, err error) {
	if t == nil {
		return
	}
	t.flush()
	ev := obs.Event{
		Phase:     obs.PhaseSession,
		Frames:    t.totFrames,
		BytesUp:   t.totUp,
		BytesDown: t.totDown,
		Dur:       time.Since(s.start),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	t.emit(ev)

	framesRead, bytesRead := s.fr.Counts()
	framesWritten, bytesWritten := s.fw.Counts()
	ios := s.ts.Stats()
	attrs := []any{
		"session", t.sid,
		"side", t.side,
		"bytes", s.costs.Total(),
		"roundtrips", s.costs.Roundtrips,
		"dur", time.Since(s.start),
		"frames_read", framesRead,
		"frames_written", framesWritten,
		"wire_bytes_read", bytesRead,
		"wire_bytes_written", bytesWritten,
		"io_reads", ios.Reads,
		"io_writes", ios.Writes,
	}
	if err != nil {
		t.log.Warn("msync: session failed", append(attrs, "err", err)...)
		return
	}
	t.log.Info("msync: session done", attrs...)
}
