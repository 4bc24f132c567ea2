package collection

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"sync"
	"time"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/md4"
	"msync/internal/merkle"
	"msync/internal/obs"
	"msync/internal/pool"
	"msync/internal/stats"
	"msync/internal/store"
	"msync/internal/transport"
	"msync/internal/wire"
)

// Server serves one version of a collection to synchronizing clients, and
// can also push its collection to a remote replica (paper §7's asymmetric
// scenario: the data holder initiates).
type Server struct {
	cfg core.Config

	mu  sync.RWMutex
	src Source
	// manifest caches src.Manifest(); hashing the whole collection per
	// session is wasteful when serving many clients. mtree memoizes the
	// merkle trees built over it for tree-mode reconciliation. Both are
	// invalidated when the collection changes (push adoption); prevTree
	// keeps the outgoing tree cache so the next session rebases it from
	// the manifest diff instead of rebuilding.
	manifest []ManifestEntry
	mtree    *merkle.TreeCache
	prevTree *merkle.TreeCache

	// AllowPush lets clients push updated collections into this server.
	AllowPush bool
	// TreeManifest selects merkle change detection when this server pushes.
	TreeManifest bool
	// OnUpdate, if set, is called with the new collection after a received
	// push (e.g. to persist it).
	OnUpdate func(map[string][]byte)
	// RoundTimeout, if positive, bounds each frame-level read/write of a
	// session so a stalled client fails the session instead of pinning a
	// server goroutine forever. Requires a connection with deadline
	// support (net.Conn, transport.PipeEnd) to interrupt blocked I/O.
	RoundTimeout time.Duration
	// HandshakeTimeout, if positive, bounds the whole handshake phase
	// (HELLO through the verdict exchange) with one absolute deadline, so
	// an idle or deliberately slow dial cannot pin a session slot the way
	// it could under the per-operation RoundTimeout alone. Cleared once
	// per-file transfer begins. Requires deadline support on the
	// connection, like RoundTimeout.
	HandshakeTimeout time.Duration
	// Tracer, if set, receives span-like events per protocol phase; the
	// summed frame bytes of a session's spans equal its Costs wire totals.
	// Tracing never changes what goes on the wire.
	Tracer obs.Tracer
	// Logger, if set, receives structured session lifecycle logs. nil
	// disables logging entirely.
	Logger *slog.Logger
	// MuxStreams caps the stream width granted to clients requesting
	// multiplexed sessions (hello extension 2). 0 refuses multiplexing:
	// requests are ignored and every session runs the legacy lockstep
	// protocol. The grant is further bounded by the session's sync-file
	// count and the protocol cap.
	MuxStreams int
	// Metrics, if set, receives the server's live multiplexing gauges and
	// counters (streams active, rounds batched). nil disables them.
	Metrics *obs.Registry
}

// NewServer creates a server over the given (path → content) collection.
func NewServer(files map[string][]byte, cfg core.Config) (*Server, error) {
	return NewServerSource(MapSource(files), cfg)
}

// NewServerSource creates a server over an arbitrary collection source
// (e.g. a lazily streamed directory tree with a signature cache).
func NewServerSource(src Source, cfg core.Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, src: src}, nil
}

// source returns the current collection source under the read lock.
func (s *Server) source() Source {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.src
}

// sessionState captures one consistent view of the collection for a session:
// the source, its manifest (built once and cached) and the merkle tree cache
// over it. A concurrent push adoption swaps all three together, so a session
// never mixes the old manifest with new content.
func (s *Server) sessionState() (Source, []ManifestEntry, *merkle.TreeCache, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		m, err := s.src.Manifest()
		if err != nil {
			return nil, nil, nil, err
		}
		entries := make([]merkle.Entry, len(m))
		for i, e := range m {
			entries[i] = merkle.Entry{Path: e.Path, Len: e.Len, Sum: e.Sum}
		}
		s.manifest = m
		fp := ManifestDigest(m)
		if s.prevTree != nil {
			s.mtree = s.prevTree.Rebase(entries, fp)
			s.prevTree = nil
		} else {
			s.mtree = merkle.NewTreeCacheAt(entries, fp, treeDir(s.src))
		}
	}
	return s.src, s.manifest, s.mtree, nil
}

// setFiles replaces the collection and invalidates the manifest cache. A
// version store wrapped around the old source carries over to the new one,
// so push adoption keeps the server versioned.
func (s *Server) setFiles(files map[string][]byte) {
	s.mu.Lock()
	if ss, ok := s.src.(*StoreSource); ok {
		s.src = ss.WithInner(MapSource(files))
	} else {
		s.src = MapSource(files)
	}
	s.manifest = nil
	if s.mtree != nil {
		// Keep the built trees: the next session rebases them from the
		// manifest diff, which is cheap when a push changed few files.
		s.prevTree = s.mtree
	}
	s.mtree = nil
	s.mu.Unlock()
}

// frameOverhead is the wire cost of a frame header for an n-byte payload.
func frameOverhead(n int) int {
	o := 2 // type byte + at least one length byte
	for n >= 0x80 {
		o++
		n >>= 7
	}
	return o
}

func addCost(c *stats.Costs, d stats.Direction, p stats.Phase, payload int) {
	c.Add(d, p, payload+frameOverhead(payload))
}

// syncFile pairs a path with its per-file server engine and the content
// snapshot the engine was built over (used for full-transfer fallbacks).
type syncFile struct {
	path   string
	engine *core.ServerFile
	data   []byte
}

// Serve runs one synchronization session over conn. It returns the session's
// cost accounting (from the server's perspective; the client computes an
// identical view). It is ServeContext with a background context.
func (s *Server) Serve(conn io.ReadWriter) (*stats.Costs, error) {
	return s.ServeContext(context.Background(), conn)
}

// ServeContext runs one synchronization session over conn under ctx:
// cancellation or a context deadline aborts the session at the next frame
// boundary (interrupting blocked I/O when conn supports deadlines), and
// RoundTimeout bounds every individual round.
func (s *Server) ServeContext(ctx context.Context, conn io.ReadWriter) (*stats.Costs, error) {
	sess := transport.NewSession(ctx, conn, s.RoundTimeout)
	defer sess.Release()
	if s.HandshakeTimeout > 0 {
		sess.SetPhaseDeadline(time.Now().Add(s.HandshakeTimeout))
	}
	costs := &stats.Costs{}
	fr := wire.GetFrameReader(sess)
	defer wire.PutFrameReader(fr)
	fw := wire.GetFrameWriter(sess)
	defer wire.PutFrameWriter(fw)
	st := newSessTrace(s.Tracer, s.Logger, "server")

	res, err := s.serveConn(ctx, sess, fr, fw, costs, st)
	st.end(costs, err, fr, fw, sess.Stats())
	return res, err
}

// serveConn runs the session body of ServeContext: handshake, role dispatch,
// then serving (or consuming, for a push) the collection. sess carries the
// handshake-phase deadline, lifted once the handshake is over.
func (s *Server) serveConn(ctx context.Context, sess *transport.Session, fr *wire.FrameReader, fw *wire.FrameWriter, costs *stats.Costs, st *sessTrace) (*stats.Costs, error) {
	fail := func(err error) (*stats.Costs, error) {
		_ = fw.WriteFrame(wire.FrameError, []byte(err.Error()))
		_ = fw.Flush()
		return costs, err
	}

	// HELLO.
	hello, err := fr.ExpectFrame(wire.FrameHello)
	if err != nil {
		return costs, err
	}
	st.cost(costs, stats.C2S, stats.PhaseControl, len(hello))
	hp := wire.NewParser(hello)
	ver, err := hp.Uvarint()
	if err != nil || ver != protocolVersion {
		return fail(fmt.Errorf("collection: unsupported protocol version"))
	}
	role, err := hp.Byte()
	if err != nil {
		return fail(fmt.Errorf("collection: missing role"))
	}
	mode, err := hp.Byte()
	if err != nil {
		return fail(fmt.Errorf("collection: missing manifest mode"))
	}
	announce, muxReq, treeCaps, mapMode := parseHelloExtensions(hp)
	if role == rolePush {
		// The remote side holds the newer data and plays the serving role;
		// we consume the session and adopt the result.
		if !s.AllowPush {
			return fail(fmt.Errorf("collection: push not allowed"))
		}
		// The pusher has identified itself and committed to a transfer; the
		// anti-loris guard has done its job.
		sess.SetPhaseDeadline(time.Time{})
		src := s.source()
		acct := beginAccounting(src)
		res, err := consume(ctx, fr, fw, costs, src, false, mode == modeTree, false, s.cfg.Workers, 0, 0, nil, st)
		acct.finish(costs)
		if err != nil {
			return costs, err
		}
		s.setFiles(res.Files)
		if s.OnUpdate != nil {
			s.OnUpdate(res.Files)
		}
		return costs, nil
	}
	if role != rolePull {
		return fail(fmt.Errorf("collection: unknown role %d", role))
	}
	if muxReq > s.MuxStreams {
		muxReq = s.MuxStreams // 0 when the server refuses multiplexing
	}
	return s.serveSession(ctx, sess, fr, fw, costs, fail, mode, announce, muxReq, treeCaps, mapMode, st)
}

// parseHelloExtensions reads the optional extension trailer after the mode
// byte and returns the announced version (-1: none), the requested mux
// stream width (0: none), the requested tree capabilities (masked to the
// bits this server implements), and the requested map-construction mode
// (MapHalving: none). A malformed trailer is treated as absent —
// extensions are an optimization hint, never a reason to fail a session.
func parseHelloExtensions(hp *wire.Parser) (announce int64, mux int, treeCaps byte, mapMode core.MapMode) {
	announce = int64(-1)
	if hp.Remaining() == 0 {
		return announce, 0, 0, core.MapHalving
	}
	n, err := hp.Uvarint()
	if err != nil {
		return announce, 0, 0, core.MapHalving
	}
	for i := uint64(0); i < n; i++ {
		id, err := hp.Uvarint()
		if err != nil {
			return announce, mux, treeCaps, mapMode
		}
		ext, err := hp.Bytes()
		if err != nil {
			return announce, mux, treeCaps, mapMode
		}
		switch id {
		case helloExtVersion:
			if v, err := wire.NewParser(ext).Uvarint(); err == nil {
				announce = int64(v)
			}
		case helloExtMux:
			if v, err := wire.NewParser(ext).Uvarint(); err == nil && v > 0 {
				if v > wire.MaxStreams {
					v = wire.MaxStreams
				}
				mux = int(v)
			}
		case helloExtTree:
			if v, err := wire.NewParser(ext).Uvarint(); err == nil {
				treeCaps = byte(v) & (treeCapSpec | treeCapCross)
			}
		case helloExtMapMode:
			if v, err := wire.NewParser(ext).Uvarint(); err == nil {
				mapMode = core.MapMode(v)
			}
		}
	}
	return announce, mux, treeCaps, mapMode
}

// serveSession runs the serving role after the handshake header, checking
// ctx at every round boundary. sess may be nil (outbound push: no admission
// guard to lift). announce is the client's hello-announced store version
// (-1: absent); it only matters when the source is versioned. mux is the
// granted stream width (0: legacy lockstep session); a journal hit or a
// session without sync engines falls back to legacy regardless. treeCaps is
// the client's requested tree-mode capability mask (already limited to what
// this server implements). mapMode is the client's requested
// map-construction mode; granting it is this server's call, made here by
// building the session config the engines (and the shipped config) use.
func (s *Server) serveSession(ctx context.Context, sess *transport.Session, fr *wire.FrameReader, fw *wire.FrameWriter, costs *stats.Costs, fail func(error) (*stats.Costs, error), mode byte, announce int64, mux int, treeCaps byte, mapMode core.MapMode, st *sessTrace) (*stats.Costs, error) {
	// The session config starts from the server's: a granted map mode is
	// the only per-session deviation, and an unusable request (unknown
	// mode, or chunker parameters the config cannot support) degrades to
	// halving rather than failing the session.
	sessCfg := s.cfg
	if mapMode != core.MapHalving {
		sessCfg.MapMode = mapMode
		if sessCfg.Validate() != nil {
			sessCfg.MapMode = core.MapHalving
		}
	}
	st.setMode(sessCfg.MapMode)
	// Accounting must start before sessionState so a first session's
	// manifest build (cache misses, streamed hashing) is attributed to it.
	acct := beginAccounting(s.source())
	defer acct.finish(costs)
	src, serverManifest, mtree, err := s.sessionState()
	if err != nil {
		return fail(err)
	}
	sbuf := wire.GetBuffer(4096) // session scratch for every frame we assemble
	defer wire.PutBuffer(sbuf)

	var engines []syncFile
	var jfiles []journalFile
	var muxCounts []int
	switch mode {
	case modeManifest:
		engines, jfiles, muxCounts, err = s.manifestHandshake(fr, fw, costs, &sessCfg, src, serverManifest, sbuf, announce, mux, st)
	case modeTree:
		engines, muxCounts, err = s.treeHandshake(fr, fw, costs, &sessCfg, src, mtree, sbuf, mux, treeCaps, st)
	default:
		err = fmt.Errorf("collection: unknown manifest mode %d", mode)
	}
	if err != nil {
		return fail(err)
	}
	if sess != nil {
		// Verdicts are out: the client is real and transfer has begun, so
		// the handshake deadline no longer applies.
		sess.SetPhaseDeadline(time.Time{})
	}
	if sessCfg.MapMode == core.MapCDC {
		costs.FilesCDC += len(engines)
	}
	if len(muxCounts) > 0 {
		// The MUX_ACK went out with the verdicts: stream-multiplexed phases
		// replace the lockstep loop below.
		return s.serveMux(ctx, sess, fr, fw, costs, fail, engines, muxCounts, st)
	}

	// Map-construction rounds, multiplexed across all sync files.
	round := 0
	for {
		if err := ctx.Err(); err != nil {
			return costs, fmt.Errorf("collection: session cancelled: %w", err)
		}
		var active []int
		for i := range engines {
			if engines[i].engine.Active() {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}
		round++
		st.begin(obs.PhaseRound, round)
		sections := make([][]byte, len(active))
		parallelFiles(s.cfg.Workers, len(active), func(k int) error {
			sections[k] = engines[active[k]].engine.EmitHashes()
			return nil
		})
		sbuf.Reset()
		sbuf.Uvarint(uint64(len(active)))
		for k, i := range active {
			sbuf.Uvarint(uint64(i))
			sbuf.Bytes(sections[k])
		}
		payload := sbuf.Build()
		if err := fw.WriteFrame(wire.FrameRoundHashes, payload); err != nil {
			return costs, err
		}
		if err := fw.Flush(); err != nil {
			return costs, err
		}
		st.cost(costs, stats.S2C, stats.PhaseMap, len(payload))

		reply, err := fr.ExpectFrame(wire.FrameRoundReply)
		if err != nil {
			return costs, err
		}
		st.cost(costs, stats.C2S, stats.PhaseMap, len(reply))
		costs.Roundtrips++
		pending, err := s.absorbReplies(engines, reply, true)
		if err != nil {
			return fail(err)
		}

		for len(pending) > 0 {
			st.begin(obs.PhaseVerify, round)
			sbuf.Reset()
			sbuf.Uvarint(uint64(len(pending)))
			for _, i := range pending {
				sbuf.Uvarint(uint64(i))
				sbuf.Bytes(engines[i].engine.EmitConfirm())
			}
			cp := sbuf.Build()
			if err := fw.WriteFrame(wire.FrameConfirm, cp); err != nil {
				return costs, err
			}
			if err := fw.Flush(); err != nil {
				return costs, err
			}
			st.cost(costs, stats.S2C, stats.PhaseMap, len(cp))

			batch, err := fr.ExpectFrame(wire.FrameRoundReply)
			if err != nil {
				return costs, err
			}
			st.cost(costs, stats.C2S, stats.PhaseMap, len(batch))
			costs.Roundtrips++
			pending, err = s.absorbReplies(engines, batch, false)
			if err != nil {
				return fail(err)
			}
		}
	}

	// Delta phase: one section per sync file.
	st.begin(obs.PhaseDelta, 0)
	deltaSections := make([][]byte, len(engines))
	parallelFiles(s.cfg.Workers, len(engines), func(i int) error {
		deltaSections[i] = engines[i].engine.EmitDelta()
		return nil
	})
	sbuf.Reset()
	sbuf.Uvarint(uint64(len(engines)))
	for i := range engines {
		sbuf.Bytes(deltaSections[i])
	}
	dp := sbuf.Build()
	if err := fw.WriteFrame(wire.FrameDelta, dp); err != nil {
		return costs, err
	}
	if err := fw.Flush(); err != nil {
		return costs, err
	}
	st.cost(costs, stats.S2C, stats.PhaseDelta, len(dp))

	// ACK lists files whose whole-file check failed; send them in full.
	ack, err := fr.ExpectFrame(wire.FrameAck)
	if err != nil {
		return costs, err
	}
	st.cost(costs, stats.C2S, stats.PhaseControl, len(ack))
	costs.Roundtrips++
	ap := wire.NewParser(ack)
	nFail, err := ap.Uvarint()
	if err != nil {
		return fail(err)
	}
	if nFail > 0 {
		st.begin(obs.PhaseFull, 0)
		nAcked := len(engines)
		if len(jfiles) > 0 {
			// Journal sessions run no engines: ack indexes are ordinals into
			// the journal-file list, answered from stored version content.
			nAcked = len(jfiles)
		}
		vs, _ := src.(VersionedSource)
		sbuf.Reset()
		sbuf.Uvarint(nFail)
		for k := uint64(0); k < nFail; k++ {
			idx, err := ap.Uvarint()
			if err != nil || int(idx) >= nAcked {
				return fail(fmt.Errorf("collection: bad ack index"))
			}
			sbuf.Uvarint(idx)
			if len(jfiles) > 0 {
				data, err := vs.VersionContent(jfiles[idx].sum)
				if err != nil {
					return fail(fmt.Errorf("collection: journal fallback %q: %w", jfiles[idx].path, err))
				}
				sbuf.Bytes(delta.Compress(data))
			} else {
				// Send the exact bytes the engine synced from, so a fallback
				// is always consistent with the session even if the source
				// changed.
				sbuf.Bytes(delta.Compress(engines[idx].data))
			}
			costs.FilesFull++
		}
		fp := sbuf.Build()
		if err := fw.WriteFrame(wire.FrameFull, fp); err != nil {
			return costs, err
		}
		if err := fw.Flush(); err != nil {
			return costs, err
		}
		st.cost(costs, stats.S2C, stats.PhaseFull, len(fp))
		costs.Roundtrips++
	}

	for i := range engines {
		e := engines[i].engine
		costs.HashesSent += e.HashesSent
		costs.CandidatesFound += e.CandidatesSeen
		costs.MatchesConfirmed += e.MatchesConfirmed
		costs.BlockHashesComputed += e.BlockHashesComputed
		costs.BytesHashed += e.BytesHashed
		costs.CDCChunks += e.CDCChunks
	}
	costs.FalseCandidates = costs.CandidatesFound - costs.MatchesConfirmed
	return costs, nil
}

// Push updates a remote replica over conn with this server's (newer)
// collection: the inverse transfer direction of Serve, for replicas that
// cannot dial out or for backup-style workflows. The remote end must be a
// Server with AllowPush set. It is PushContext with a background context.
func (s *Server) Push(conn io.ReadWriter) (*stats.Costs, error) {
	return s.PushContext(context.Background(), conn)
}

// PushContext runs Push under ctx, with the same cancellation and
// round-timeout semantics as ServeContext.
func (s *Server) PushContext(ctx context.Context, conn io.ReadWriter) (*stats.Costs, error) {
	sess := transport.NewSession(ctx, conn, s.RoundTimeout)
	defer sess.Release()
	costs := &stats.Costs{}
	fr := wire.NewFrameReader(sess)
	fw := wire.NewFrameWriter(sess)
	st := newSessTrace(s.Tracer, s.Logger, "server")

	res, err := func() (*stats.Costs, error) {
		hb := wire.NewBuffer(8)
		hb.Uvarint(protocolVersion)
		hb.Byte(rolePush)
		mode := byte(modeManifest)
		if s.TreeManifest {
			mode = modeTree
		}
		hb.Byte(mode)
		if err := fw.WriteFrame(wire.FrameHello, hb.Build()); err != nil {
			return costs, err
		}
		if err := fw.Flush(); err != nil {
			return costs, err
		}
		st.cost(costs, stats.C2S, stats.PhaseControl, hb.Len())

		fail := func(err error) (*stats.Costs, error) {
			_ = fw.WriteFrame(wire.FrameError, []byte(err.Error()))
			_ = fw.Flush()
			return costs, err
		}
		// Push receivers never request multiplexing or tree extensions, so
		// none are granted.
		return s.serveSession(ctx, nil, fr, fw, costs, fail, mode, -1, 0, 0, core.MapHalving, st)
	}()
	st.end(costs, err, fr, fw, sess.Stats())
	return res, err
}

// journalFile is one verdictJournal entry of a journal session, in verdict
// order: ack indexes and full-transfer fallbacks reference this list the way
// a normal session references its engines.
type journalFile struct {
	path string
	len  int
	sum  [16]byte
}

// manifestHandshake runs the flat-manifest handshake: read the client's
// full manifest, reply with per-file verdicts plus new files. When the
// client announced a stored version and the source is versioned, a
// precomputed journal delta replaces map construction entirely (journal
// verdicts carry the payloads inline); any miss falls back to the normal
// path and only appends the server's current version to the verdict frame.
func (s *Server) manifestHandshake(fr *wire.FrameReader, fw *wire.FrameWriter, costs *stats.Costs, cfg *core.Config, src Source, serverManifest []ManifestEntry, vb *wire.Buffer, announce int64, mux int, st *sessTrace) ([]syncFile, []journalFile, []int, error) {
	manifestRaw, err := fr.ExpectFrame(wire.FrameManifest)
	if err != nil {
		return nil, nil, nil, err
	}
	st.cost(costs, stats.C2S, stats.PhaseControl, len(manifestRaw))
	manifest, err := decodeManifest(manifestRaw)
	if err != nil {
		return nil, nil, nil, err
	}

	vs, versioned := src.(VersionedSource)
	if announce >= 0 && versioned {
		if vd, ok := vs.VersionDelta(uint64(announce), md4.Sum(manifestRaw), ManifestDigest(serverManifest)); ok {
			// A journal hit runs no engines, so there is nothing to
			// multiplex: no MUX_ACK, legacy session shape.
			costs.JournalHits++
			jfiles, err := s.journalVerdicts(fw, costs, cfg, manifest, vd, vb, st)
			return nil, jfiles, nil, err
		}
		costs.JournalMisses++
	}

	serverByPath := make(map[string]int, len(serverManifest))
	for i, e := range serverManifest {
		serverByPath[e.Path] = i
	}
	vb.Reset()
	vb.Bytes(encodeConfig(cfg))
	vb.Uvarint(uint64(len(manifest)))
	var engines []syncFile
	seen := make(map[string]bool, len(manifest))
	fullBytes := 0
	for _, e := range manifest {
		seen[e.Path] = true
		si, ok := serverByPath[e.Path]
		if !ok {
			vb.Byte(verdictDelete)
			continue
		}
		se := serverManifest[si]
		if se.Len == e.Len && se.Sum == e.Sum {
			vb.Byte(verdictUnchanged)
			costs.FilesUnchanged++
			continue
		}
		data, err := src.Load(e.Path)
		if errors.Is(err, fs.ErrNotExist) {
			// Vanished since the manifest was built; treat as deleted.
			vb.Byte(verdictDelete)
			continue
		}
		if err != nil {
			return nil, nil, nil, err
		}
		eng, err := s.emitChangedVerdict(vb, cfg, src, e.Path, data, costs, &fullBytes)
		if err != nil {
			return nil, nil, nil, err
		}
		if eng != nil {
			engines = append(engines, syncFile{e.Path, eng, data})
		}
	}
	// New files (on the server, absent at the client), sorted manifest order.
	var newPaths []string
	var newComp [][]byte
	for _, e := range serverManifest {
		if seen[e.Path] {
			continue
		}
		data, err := src.Load(e.Path)
		if errors.Is(err, fs.ErrNotExist) {
			continue // vanished since the manifest was built
		}
		if err != nil {
			return nil, nil, nil, err
		}
		newPaths = append(newPaths, e.Path)
		newComp = append(newComp, delta.Compress(data))
	}
	vb.Uvarint(uint64(len(newPaths)))
	for i, p := range newPaths {
		vb.String(p)
		vb.Bytes(newComp[i])
		fullBytes += len(newComp[i])
		costs.FilesFull++
	}
	if announce >= 0 && versioned {
		// The announcing client learns the server's current version even on
		// a journal miss, so its next sync can announce something useful.
		vb.Uvarint(vs.CurrentVersion())
	}
	muxCounts := muxPartition(engines, mux)
	if err := s.sendVerdicts(fw, costs, vb.Build(), fullBytes, 0, muxCounts, st); err != nil {
		return nil, nil, nil, err
	}
	return engines, nil, muxCounts, nil
}

// journalVerdicts answers an announced client from a precomputed journal
// delta: every client-manifest entry gets unchanged/delete/journal verdicts
// (the journal verdict carries the delta payload inline), adds ride in the
// new-files trailer, and the current version is appended. No engines run —
// the whole transfer happens in this one frame plus the empty delta round.
func (s *Server) journalVerdicts(fw *wire.FrameWriter, costs *stats.Costs, cfg *core.Config, clientManifest []ManifestEntry, vd *store.Delta, vb *wire.Buffer, st *sessTrace) ([]journalFile, error) {
	vb.Reset()
	vb.Bytes(encodeConfig(cfg))
	vb.Uvarint(uint64(len(clientManifest)))
	var jfiles []journalFile
	fullBytes, deltaBytes := 0, 0
	for _, e := range clientManifest {
		ch, ok := vd.Changes[e.Path]
		if !ok {
			vb.Byte(verdictUnchanged)
			costs.FilesUnchanged++
			continue
		}
		switch ch.Op {
		case store.OpDelete:
			vb.Byte(verdictDelete)
		case store.OpModify:
			vb.Byte(verdictJournal)
			vb.Uvarint(uint64(ch.Len))
			vb.Raw(ch.Sum[:])
			vb.Bytes(ch.Payload)
			deltaBytes += len(ch.Payload)
			jfiles = append(jfiles, journalFile{e.Path, ch.Len, ch.Sum})
			costs.FilesJournal++
		default:
			// An add for a path the client's digest-matched manifest already
			// holds cannot happen; fail loudly rather than desynchronize.
			return nil, fmt.Errorf("collection: journal delta inconsistent at %q", e.Path)
		}
	}
	vb.Uvarint(uint64(len(vd.Added)))
	for _, p := range vd.Added {
		ch := vd.Changes[p]
		vb.String(p)
		vb.Bytes(ch.Payload)
		fullBytes += len(ch.Payload)
		costs.FilesFull++
	}
	vb.Uvarint(vd.Current)
	if err := s.sendVerdicts(fw, costs, vb.Build(), fullBytes, deltaBytes, nil, st); err != nil {
		return nil, err
	}
	return jfiles, nil
}

// treeHandshake runs merkle reconciliation, then answers the client's WANT
// list with verdicts for exactly those files. caps is the client's requested
// tree capability mask; anything we grant is announced with a TREE_ACK sent
// before the first TREE reply (same flush, no extra roundtrip). With caps ==
// 0 the exchange is byte-identical to a pre-extension session.
func (s *Server) treeHandshake(fr *wire.FrameReader, fw *wire.FrameWriter, costs *stats.Costs, cfg *core.Config, src Source, mtree *merkle.TreeCache, vb *wire.Buffer, mux int, caps byte, st *sessTrace) ([]syncFile, []int, error) {
	resp := merkle.NewResponderCached(mtree)
	granted := caps & (treeCapSpec | treeCapCross)
	resp.Speculative = granted&treeCapSpec != 0
	ackPending := granted != 0

	var want []byte
	round := 0
	for want == nil {
		ft, payload, err := fr.ReadFrame()
		if err != nil {
			return nil, nil, err
		}
		switch ft {
		case wire.FrameTree:
			round++
			st.begin(obs.PhaseTree, round)
			st.cost(costs, stats.C2S, stats.PhaseControl, len(payload))
			reply, err := resp.Respond(payload)
			if err != nil {
				return nil, nil, err
			}
			if ackPending {
				ackPending = false
				ab := wire.NewBuffer(2)
				ab.Uvarint(uint64(granted))
				if err := fw.WriteFrame(wire.FrameTreeAck, ab.Build()); err != nil {
					return nil, nil, err
				}
				st.cost(costs, stats.S2C, stats.PhaseControl, ab.Len())
			}
			if err := fw.WriteFrame(wire.FrameTree, reply); err != nil {
				return nil, nil, err
			}
			if err := fw.Flush(); err != nil {
				return nil, nil, err
			}
			st.cost(costs, stats.S2C, stats.PhaseControl, len(reply))
			costs.Roundtrips++
			costs.TreeRounds++
		case wire.FrameWant:
			st.cost(costs, stats.C2S, stats.PhaseControl, len(payload))
			want = payload
		default:
			return nil, nil, fmt.Errorf("collection: unexpected frame %s during reconciliation", wire.FrameName(ft))
		}
	}
	st.begin(obs.PhaseHandshake, 0)

	wp := wire.NewParser(want)
	n, err := wp.Uvarint()
	if err != nil {
		return nil, nil, err
	}
	vb.Reset()
	vb.Bytes(encodeConfig(cfg))
	vb.Uvarint(n)
	var engines []syncFile
	fullBytes := 0
	for k := uint64(0); k < n; k++ {
		path, err := wp.String()
		if err != nil {
			return nil, nil, err
		}
		have, err := wp.Byte()
		if err != nil {
			return nil, nil, err
		}
		data, err := src.Load(path)
		if errors.Is(err, fs.ErrNotExist) {
			vb.Byte(verdictDelete)
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		if have == wantAbsent {
			vb.Byte(verdictFull)
			comp := delta.Compress(data)
			vb.Bytes(comp)
			fullBytes += len(comp)
			costs.FilesFull++
			continue
		}
		if have == wantAltBasis {
			// The client syncs against an alternate local basis; the map
			// protocol is basis-agnostic, so the serving side is unchanged.
			costs.FilesRebased++
		}
		eng, err := s.emitChangedVerdict(vb, cfg, src, path, data, costs, &fullBytes)
		if err != nil {
			return nil, nil, err
		}
		if eng != nil {
			engines = append(engines, syncFile{path, eng, data})
		}
	}
	vb.Uvarint(0) // no trailing new-file section in tree mode
	muxCounts := muxPartition(engines, mux)
	if err := s.sendVerdicts(fw, costs, vb.Build(), fullBytes, 0, muxCounts, st); err != nil {
		return nil, nil, err
	}
	return engines, muxCounts, nil
}

// emitChangedVerdict writes the verdict for a changed file the client holds:
// small files go whole, larger ones get a sync engine. The announced length
// and the engine both come from the same data snapshot, so the two sides can
// never disagree even if the underlying file mutates mid-session.
func (s *Server) emitChangedVerdict(vb *wire.Buffer, cfg *core.Config, src Source, path string, data []byte, costs *stats.Costs, fullBytes *int) (*core.ServerFile, error) {
	if len(data) < s.cfg.MinBlockSize*2 {
		vb.Byte(verdictFull)
		comp := delta.Compress(data)
		vb.Bytes(comp)
		*fullBytes += len(comp)
		costs.FilesFull++
		return nil, nil
	}
	vb.Byte(verdictSync)
	vb.Uvarint(uint64(len(data)))
	eng, err := core.NewServerFile(data, cfg)
	if err != nil {
		return nil, err
	}
	eng.UseSignature(src.Signature(path))
	costs.FilesSynced++
	return eng, nil
}

// sendVerdicts flushes the verdict frame with split cost attribution:
// full payloads count as PhaseFull, journal delta payloads as PhaseDelta,
// and the remainder (verdict bytes, lengths, framing) as control. A non-nil
// muxCounts grants stream multiplexing: the MUX_ACK precedes the verdicts in
// the same flush, so granting costs no extra roundtrip.
func (s *Server) sendVerdicts(fw *wire.FrameWriter, costs *stats.Costs, verdicts []byte, fullBytes, deltaBytes int, muxCounts []int, st *sessTrace) error {
	if len(muxCounts) > 0 {
		ack := wire.EncodeMuxAck(muxCounts)
		if err := fw.WriteFrame(wire.FrameMuxAck, ack); err != nil {
			return err
		}
		st.cost(costs, stats.S2C, stats.PhaseControl, len(ack))
	}
	if err := fw.WriteFrame(wire.FrameVerdicts, verdicts); err != nil {
		return err
	}
	if err := fw.Flush(); err != nil {
		return err
	}
	st.verdictCost(costs, len(verdicts), fullBytes, deltaBytes)
	costs.Roundtrips++
	return nil
}

// parallelFiles runs fn(0..n-1) across the session's worker budget; per-file
// engines are independent, so their CPU-heavy work parallelizes freely. The
// first error wins. Results are always gathered into index-addressed slots by
// the callers, so reply and section ordering is identical for every worker
// count.
func parallelFiles(workers, n int, fn func(i int) error) error {
	return pool.Do(workers, n, fn)
}

// absorbReplies processes one client reply frame (initial replies or
// subsequent batches) and returns the files that still need another batch.
func (s *Server) absorbReplies(engines []syncFile, payload []byte, first bool) ([]int, error) {
	pr := wire.NewParser(payload)
	n, err := pr.Uvarint()
	if err != nil {
		return nil, err
	}
	type job struct {
		idx     int
		section []byte
	}
	jobs := make([]job, 0, n)
	for k := uint64(0); k < n; k++ {
		idx, err := pr.Uvarint()
		if err != nil {
			return nil, err
		}
		if int(idx) >= len(engines) {
			return nil, fmt.Errorf("collection: bad file index %d", idx)
		}
		section, err := pr.Bytes()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job{int(idx), section})
	}
	mores := make([]bool, len(jobs))
	err = parallelFiles(s.cfg.Workers, len(jobs), func(k int) error {
		var more bool
		var err error
		if first {
			more, err = engines[jobs[k].idx].engine.AbsorbReply(jobs[k].section)
		} else {
			more, err = engines[jobs[k].idx].engine.AbsorbBatch(jobs[k].section)
		}
		if err != nil {
			return fmt.Errorf("collection: file %q: %w", engines[jobs[k].idx].path, err)
		}
		mores[k] = more
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pending []int
	for k, more := range mores {
		if more {
			pending = append(pending, jobs[k].idx)
		}
	}
	return pending, nil
}

// SelfTest verifies that the server's collection round-trips through a
// compression cycle; used by integration tests and the CLI's --check mode.
func (s *Server) SelfTest() error {
	src, manifest, _, err := s.sessionState()
	if err != nil {
		return err
	}
	for _, e := range manifest {
		data, err := src.Load(e.Path)
		if err != nil {
			return fmt.Errorf("collection: self-test failed for %q: %w", e.Path, err)
		}
		dec, err := delta.Decompress(delta.Compress(data))
		if err != nil || !bytes.Equal(dec, data) {
			return fmt.Errorf("collection: self-test failed for %q", e.Path)
		}
	}
	return nil
}
