package collection

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/dirio"
	"msync/internal/obs"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// Options are the settings of one endpoint's sessions. Client and Server
// embed them, and each end reads the fields its role uses: a pulling client
// its change detection and extensions, a server its push acceptance and
// grants. The timeouts, the worker budget and the observability hooks apply
// to every session either end runs.
type Options struct {
	// Timeout, if positive, bounds each whole session, handshake through the
	// final ack.
	Timeout time.Duration
	// RoundTimeout, if positive, bounds each frame-level read and write of a
	// session, and therefore each protocol round, so a stalled peer fails the
	// session instead of hanging it. Interrupting blocked I/O needs a
	// connection with deadline support (net.Conn, transport.PipeEnd).
	RoundTimeout time.Duration
	// HandshakeTimeout, if positive, bounds a served session's handshake
	// (HELLO through the verdict exchange for a pull, the HELLO for a push)
	// with one absolute deadline, so an idle or deliberately slow dial cannot
	// pin a session slot the way it could under RoundTimeout alone.
	HandshakeTimeout time.Duration
	// Workers bounds a client's local parallelism: per-file engine fan-out
	// plus the engines' sharded scans and batched verification hashing.
	// 0 means runtime.GOMAXPROCS(0); 1 is fully serial. A server's budget is
	// its config's Workers. The wire output is bit-identical for every value.
	Workers int

	// TreeManifest switches change detection from the flat fingerprint
	// manifest to merkle-tree reconciliation, O(changed·log n) instead of
	// O(n): for a client's pulls and a server's pushes. A client's tree pull
	// asks for speculative descent and cross-file matching (hello extension
	// 3): descent answers carry several levels of digests at once, a pure
	// rename is copied locally, and a new file may sync against an alternate
	// local basis named in the WANT exchange.
	TreeManifest bool
	// MapMode requests a map-construction mode (hello extension 4). The
	// server grants it by echoing it in the session config it ships with the
	// verdicts; one that predates the extension runs halving byte-identically.
	// The zero value never emits the extension.
	MapMode core.MapMode
	// AnnounceVersion adds the version extension to the hello: the client
	// announces BaseVersion (0 = none known), and above 0 names its manifest
	// by its digest (MANIFEST_REF), sending it only to a server that asks. A
	// versioned server may answer with a precomputed journal delta and
	// reports its current version in Result.Version.
	AnnounceVersion bool
	// BaseVersion is the stored version this client's collection matches, as
	// learned from a previous Result.Version.
	BaseVersion uint64
	// AllowPush lets clients push updated collections into this server;
	// OnUpdate, if set, is called after each with the pushed result's Files:
	// a map server's whole new collection, a directory server's files the
	// push wrote (see Server.adopt).
	AllowPush bool
	OnUpdate  func(map[string][]byte)

	// Tracer, if set, receives span-like events per protocol phase; the
	// summed frame bytes of a session's spans equal its Costs wire totals.
	// Logger, if set, receives structured session lifecycle logs. Neither
	// ever changes what goes on the wire.
	Tracer obs.Tracer
	Logger *slog.Logger
	// Metrics, if set, receives every session's outcome — the active gauge,
	// the session and error counts, the duration histogram and its Costs.
	Metrics *obs.Registry
}

// session is one end of a running session: the connection with its frame
// reader and writer, the accounting every frame goes through, a pooled
// scratch buffer for the frames this end assembles, and what the hello
// settled. Both roles run on it — the data holder (a server answering a pull,
// or pushing) and the receiver (a pulling client, or a server accepting a
// push) — so a frame is written, counted and traced the same way everywhere.
type session struct {
	ctx    context.Context
	cancel context.CancelFunc
	ts     *transport.Session
	fr     *wire.FrameReader
	fw     *wire.FrameWriter
	costs  *stats.Costs
	st     *sessTrace
	buf    *wire.Buffer

	metrics *obs.Registry
	start   time.Time // the session's, for its duration in the metrics and the trace

	// holder is the role: the data holder sends S2C and tells the peer why
	// before giving up on a protocol violation (see fail).
	holder bool
	src    Source
	// cur reads src's files when src serves a directory (see load); nil
	// until the first load.
	cur *dirio.Cursor
	// cfg is the session's protocol config. The holder decides it and ships
	// it with the verdicts; Workers is never serialized, so it is always this
	// end's own budget.
	cfg core.Config
	// mode and ext are the hello: the manifest mode and the extensions the
	// client asked for (on the server, already cut down to what it grants).
	// The mode is read once per end, to pick the change detector.
	mode byte
	ext  helloExts
	// grant is what the holder granted of ext: the config it shipped with
	// the verdicts says so on both ends.
	grant grant
}

// openSession is the one envelope of every session, whatever its role: it
// wraps conn under opt's whole-session Timeout and per-round RoundTimeout,
// starts the trace and the log, and counts the session active. The caller
// must close it.
func openSession(ctx context.Context, conn io.ReadWriter, opt *Options, side string) *session {
	cancel := context.CancelFunc(func() {})
	if opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
	}
	if opt.Metrics != nil {
		opt.Metrics.Gauge(obs.MetricSessionsActive).Inc()
	}
	ts := transport.NewSession(ctx, conn, opt.RoundTimeout)
	return &session{
		ctx:     ctx,
		cancel:  cancel,
		ts:      ts,
		fr:      wire.GetFrameReader(ts),
		fw:      wire.GetFrameWriter(ts),
		costs:   &stats.Costs{},
		start:   time.Now(), // before the trace's first span starts
		st:      newSessTrace(opt.Tracer, opt.Logger, side),
		buf:     wire.GetBuffer(4096),
		metrics: opt.Metrics,
		ext:     helloExts{announce: -1},
	}
}

// close ends the session: its trace and log with the outcome, its metrics
// with the outcome, duration and costs; then it returns the pooled reader,
// writer and scratch and releases the connection. It also closes the cursor,
// which a receiver whose change detection failed before verdicts may hold.
func (s *session) close(err error) {
	s.closeCursor()
	s.st.end(s, err)
	if r := s.metrics; r != nil {
		r.Gauge(obs.MetricSessionsActive).Dec()
		r.Counter(obs.MetricSessions).Inc()
		if err != nil {
			r.Counter(obs.MetricSessionErrors).Inc()
		}
		r.Histogram(obs.MetricSessionSeconds, obs.DurationBuckets).Observe(int64(time.Since(s.start)))
		obs.RecordCosts(r, s.costs)
	}
	wire.PutBuffer(s.buf)
	wire.PutFrameWriter(s.fw)
	wire.PutFrameReader(s.fr)
	s.ts.Release()
	s.cancel()
}

// load returns one file of the session's source. Over a directory it reads
// through the session's one cursor, so the loads of the change-detection
// phase, which run on the session goroutine in path order, open each
// directory once; verdictWalk and verdicts close the cursor when they
// return, so a session holds no descriptor through its per-file phases.
// Over any other source it is the source's Load.
func (s *session) load(path string) ([]byte, error) {
	data, _, err := s.loadWalked(path)
	return data, err
}

// loadWalked is load that also reports whether the file read is the one the
// source fingerprinted: over a directory, one with the size, modification and
// change time the walk saw (dirio.Cursor.LoadWalked); over any other source,
// always. What the source says of a file that is not — its signature — is
// of other bytes.
func (s *session) loadWalked(path string) ([]byte, bool, error) {
	ts := dirOf(s.src)
	if ts == nil {
		data, err := s.src.Load(path)
		return data, true, err
	}
	if s.cur == nil {
		s.cur = ts.tree.Cursor()
	}
	return s.cur.LoadWalked(path)
}

// closeCursor releases the directories the session's cursor holds; the
// cursor stays usable.
func (s *session) closeCursor() {
	if s.cur != nil {
		s.cur.Close()
	}
}

// deltaMode is the format the holder encodes this session's deltas and whole
// files in: mode 2 for a receiver that asked for it (hello extension 6), mode
// 0 for one that did not, which may predate mode 2 and decode nothing else.
func (s *session) deltaMode() delta.Mode {
	if s.ext.delta2 {
		return delta.Mode2
	}
	return delta.Mode0
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
// it knows the phase. A peer's ERROR answer surfaces as an error carrying its
// message, a BUSY answer as a *wire.BusyError.
func (s *session) read() (byte, []byte, error) { return s.readMax(wire.MaxFrameSize) }

// readMax is read for a frame of at most max bytes.
func (s *session) readMax(max int) (byte, []byte, error) {
	ft, payload, err := s.fr.ReadFrameMax(max)
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

// expect reads the next frame, of at most max bytes, which must be of type
// want. The caller accounts it.
func (s *session) expect(want byte, max int) ([]byte, error) {
	ft, payload, err := s.readMax(max)
	if err == nil && ft != want {
		err = errFrame(ft, payload)
	}
	return payload, err
}

// errFrame is the one error for a frame that is not legal where it arrived,
// or whose payload is not the size its type fixes.
func errFrame(ft byte, payload []byte) error {
	return fmt.Errorf("%w: unexpected frame %s of %d bytes", core.ErrProtocol, wire.FrameName(ft), len(payload))
}

// readGranted reads the holder's next frame, which must be of type want —
// preceded, if this end's hello asked for something the holder may grant, by
// the grant frame that says so (TREE_ACK before the first TREE reply). The
// grant is accounted here; want is the caller's. read takes the first frame:
// s.read, or a detector's, which serves what the holder asks of it before it
// answers.
func (s *session) readGranted(read func() (byte, []byte, error), grant, want byte, asked bool) (granted, payload []byte, err error) {
	ft, payload, err := read()
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

// Costs.Roundtrips counts answers: the frames one end sends because of what
// the other just sent — verdicts for a manifest or WANT, a TREE reply for a
// TREE query, the reply to a frame of hashes, confirms or deltas, and the
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

// cancelled is the check every flight of the per-file phases starts with.
func (s *session) cancelled() error {
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("collection: session cancelled: %w", err)
	}
	return nil
}
