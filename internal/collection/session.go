package collection

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"

	"msync/internal/core"
	"msync/internal/obs"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// session is one end of a running session: the connection with its frame
// reader and writer, the accounting every frame goes through, a pooled
// scratch buffer for the frames this end assembles, and what the hello
// settled. Both roles run on it — the data holder (a server answering a pull,
// or pushing) and the receiver (a pulling client, or a server accepting a
// push) — so a frame is written, counted and traced the same way everywhere.
type session struct {
	ctx   context.Context
	ts    *transport.Session
	fr    *wire.FrameReader
	fw    *wire.FrameWriter
	costs *stats.Costs
	st    *sessTrace
	buf   *wire.Buffer

	// holder is the role: the data holder sends S2C and tells the peer why
	// before giving up on a protocol violation (see fail).
	holder bool
	src    Source
	// cfg is the session's protocol config. The holder decides it and ships
	// it with the verdicts; Workers is never serialized, so it is always this
	// end's own budget.
	cfg core.Config
	// mode and ext are the hello: the manifest mode and the extensions the
	// client asked for (on the server, already cut down to what it grants).
	mode byte
	ext  helloExts
	// withheld is the manifest a receiver announced by reference
	// (MANIFEST_REF) and, while owed, still owes a holder that asks for it.
	withheld []ManifestEntry
	owed     bool
	// groups is set, on both ends, once the flat manifest went as
	// MANIFEST_SHORT: the files judged unchanged and their group sums.
	groups *sumGroups
}

// openSession wraps conn for one session; the caller must close it.
func openSession(ctx context.Context, conn io.ReadWriter, roundTimeout time.Duration, tr obs.Tracer, log *slog.Logger, side string) *session {
	ts := transport.NewSession(ctx, conn, roundTimeout)
	return &session{
		ctx:   ctx,
		ts:    ts,
		fr:    wire.GetFrameReader(ts),
		fw:    wire.GetFrameWriter(ts),
		costs: &stats.Costs{},
		st:    newSessTrace(tr, log, side),
		buf:   wire.GetBuffer(4096),
		ext:   helloExts{announce: -1},
	}
}

// close ends the session's trace with its outcome and returns the pooled
// reader, writer and scratch.
func (s *session) close(err error) {
	s.st.end(s, err)
	wire.PutBuffer(s.buf)
	wire.PutFrameWriter(s.fw)
	wire.PutFrameReader(s.fr)
	s.ts.Release()
}

// out and in are the directions this end's frames travel in the session's
// cost accounting: C2S always means receiver to holder, whoever dialed.
func (s *session) out() stats.Direction {
	if s.holder {
		return stats.S2C
	}
	return stats.C2S
}

func (s *session) in() stats.Direction {
	if s.holder {
		return stats.C2S
	}
	return stats.S2C
}

// cost accounts one frame, payload plus framing, to the costs and the
// current span.
func (s *session) cost(d stats.Direction, p stats.Phase, payload int) {
	s.st.cost(s.costs, d, p, payload)
}

// send writes one frame and accounts it.
func (s *session) send(ft byte, payload []byte, p stats.Phase) error {
	if err := s.fw.WriteFrame(ft, payload); err != nil {
		return err
	}
	s.cost(s.out(), p, len(payload))
	return nil
}

// sendHello opens the session from the dialing end: protocol version, role,
// and the session's manifest mode and extensions. The hello is accounted C2S
// whoever sends it. No flush: a puller's manifest or first TREE query follows.
func (s *session) sendHello(role byte) error {
	hb := wire.NewBuffer(16)
	hb.Uvarint(protocolVersion)
	hb.Byte(role)
	hb.Byte(s.mode)
	s.ext.encode(hb)
	if err := s.fw.WriteFrame(wire.FrameHello, hb.Build()); err != nil {
		return err
	}
	s.cost(stats.C2S, stats.PhaseControl, hb.Len())
	return nil
}

// read returns the next frame, whatever its type; the caller accounts it once
// it knows the phase. A peer's ERROR or BUSY answer surfaces as the error
// wire.FrameReader.ExpectFrame would report.
func (s *session) read() (byte, []byte, error) {
	ft, payload, err := s.fr.ReadFrame()
	switch {
	case err != nil:
		return 0, nil, err
	case ft == wire.FrameError:
		return 0, nil, fmt.Errorf("wire: remote error: %s", payload)
	case ft == wire.FrameBusy:
		return 0, nil, wire.DecodeBusy(payload)
	}
	return ft, payload, nil
}

// errFrame is the one error for a frame that is not legal where it arrived,
// or whose payload is not the size its type fixes.
func errFrame(ft byte, payload []byte) error {
	return fmt.Errorf("%w: unexpected frame %s of %d bytes", core.ErrProtocol, wire.FrameName(ft), len(payload))
}

// readGranted reads the holder's next frame, which must be of type want —
// preceded, if this end's hello asked for something the holder may grant, by
// the grant frame that says so (MUX_ACK before VERDICTS, TREE_ACK before the
// first TREE reply). The grant is accounted here; want is the caller's. A
// holder that could not resolve this end's MANIFEST_REF asks first, once and
// with an empty MANIFEST_WANT, for the manifest withheld: an answer, so a
// roundtrip, and the frames above follow the manifest frame sent here.
func (s *session) readGranted(grant, want byte, asked bool) (granted, payload []byte, err error) {
	ft, payload, err := s.read()
	if err == nil && s.owed && ft == wire.FrameManifestWant && len(payload) == 0 {
		s.cost(stats.S2C, stats.PhaseControl, 0)
		s.answered()
		s.owed = false
		if err = s.sendManifest(s.withheld, false); err == nil {
			if err = s.flush(); err == nil {
				ft, payload, err = s.read()
			}
		}
	}
	if err == nil && asked && ft == grant {
		granted = payload
		s.cost(stats.S2C, stats.PhaseControl, len(granted))
		ft, payload, err = s.read()
	}
	if err == nil && ft != want {
		err = errFrame(ft, payload)
	}
	return granted, payload, err
}

// expect reads the next frame, which must be of type ft, and accounts it.
func (s *session) expect(ft byte, p stats.Phase) ([]byte, error) {
	payload, err := s.fr.ExpectFrame(ft)
	if err != nil {
		return nil, err
	}
	s.cost(s.in(), p, len(payload))
	return payload, nil
}

// Costs.Roundtrips counts answers: the frames one end sends because of what
// the other just sent — verdicts for a manifest or WANT, a TREE reply for a
// TREE query, the replies to a cycle of hashes, confirms or deltas, and the
// FULL transfers an ACK asked for. The end that sends an answer counts it in
// flushAnswer, the end that reads one calls answered, and nothing else touches
// the counter, so both ends arrive at the same number.

// flush sends the buffered frames; one flush per communication phase.
func (s *session) flush() error { return s.fw.Flush() }

// flushAnswer flushes frames that answer the peer and counts the roundtrip.
func (s *session) flushAnswer() error {
	s.costs.Roundtrips++
	return s.fw.Flush()
}

// answered counts the roundtrip completed by reading the peer's answer.
func (s *session) answered() { s.costs.Roundtrips++ }

// fail reports a protocol violation or a local failure that ends the session.
// The holder tells the peer why in an ERROR frame first (best effort); a
// receiver just gives up. Transport errors are returned as they are, never
// through fail: the connection that produced them cannot carry the message.
func (s *session) fail(err error) error {
	if s.holder {
		_ = s.fw.WriteFrame(wire.FrameError, []byte(err.Error()))
		_ = s.fw.Flush()
	}
	return err
}

// cancelled is the check every cycle of the per-file phases starts with.
func (s *session) cancelled() error {
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("collection: session cancelled: %w", err)
	}
	return nil
}
