package collection

import (
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
	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/merkle"
	"msync/internal/obs"
	"msync/internal/stats"
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
	// requests are ignored and every session runs as one unwrapped stream
	// over all its files. The grant is further bounded by the session's
	// sync-file count and the protocol cap.
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
		s.manifest = m
		fp := ManifestDigest(m)
		if s.prevTree != nil {
			s.mtree = s.prevTree.Rebase(m, fp)
			s.prevTree = nil
		} else {
			s.mtree = merkle.NewTreeCacheAt(m, fp, treeDir(s.src))
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
func (s *Server) ServeContext(ctx context.Context, conn io.ReadWriter) (_ *stats.Costs, err error) {
	sess := openSession(ctx, conn, s.RoundTimeout, s.Tracer, s.Logger, "server")
	defer func() { sess.close(err) }()
	if s.HandshakeTimeout > 0 {
		sess.ts.SetPhaseDeadline(time.Now().Add(s.HandshakeTimeout))
	}
	return sess.costs, s.serveConn(sess)
}

// serveConn runs the session body of ServeContext: handshake, role dispatch,
// then serving (or consuming, for a push) the collection. The session carries
// the handshake-phase deadline, lifted once the handshake is over.
func (s *Server) serveConn(sess *session) error {
	sess.holder = true

	// HELLO.
	hello, err := sess.fr.ExpectFrame(wire.FrameHello)
	if err != nil {
		return err
	}
	sess.cost(stats.C2S, stats.PhaseControl, len(hello))
	hp := wire.NewParser(hello)
	ver, err := hp.Uvarint()
	if err != nil || ver != protocolVersion {
		return sess.fail(fmt.Errorf("collection: unsupported protocol version"))
	}
	role, err := hp.Byte()
	if err != nil {
		return sess.fail(fmt.Errorf("collection: missing role"))
	}
	if sess.mode, err = hp.Byte(); err != nil {
		return sess.fail(fmt.Errorf("collection: missing manifest mode"))
	}
	switch role {
	case rolePush:
		// The remote side holds the newer data and plays the serving role;
		// we consume the session and adopt the result.
		if !s.AllowPush {
			return sess.fail(fmt.Errorf("collection: push not allowed"))
		}
		// The pusher has identified itself and committed to a transfer; the
		// anti-loris guard has done its job.
		sess.ts.SetPhaseDeadline(time.Time{})
		sess.holder = false
		sess.src = s.source()
		sess.cfg.Workers = s.cfg.Workers
		acct := beginAccounting(sess.src)
		res, err := sess.consume(false, nil)
		acct.finish(sess.costs)
		if err != nil {
			return err
		}
		s.setFiles(res.Files)
		if s.OnUpdate != nil {
			s.OnUpdate(res.Files)
		}
		return nil
	case rolePull:
		sess.ext = parseHelloExts(hp)
		if sess.ext.mux > s.MuxStreams {
			sess.ext.mux = s.MuxStreams // 0 when the server refuses multiplexing
		}
		return s.serve(sess)
	}
	return sess.fail(fmt.Errorf("collection: unknown role %d", role))
}

// serve runs the serving role after the handshake header: change detection
// and verdicts in the hello's manifest mode, then the per-file phases. The
// hello's extensions are requests: the announced store version only matters
// when the source is versioned; the stream width is what this server would
// grant (a journal hit or a session without sync engines runs one bare stream
// regardless); the map mode is granted here, by building the session config
// the engines (and the shipped config) use.
func (s *Server) serve(sess *session) error {
	// The session config starts from the server's: a granted map mode is
	// the only per-session deviation, and an unusable request (unknown
	// mode, or chunker parameters the config cannot support) degrades to
	// halving rather than failing the session — noted and logged once.
	sess.cfg = s.cfg
	if sess.ext.mapMode != core.MapHalving {
		sess.cfg.MapMode = sess.ext.mapMode
		if err := sess.cfg.Validate(); err != nil {
			reason := "unusable_config"
			if sess.ext.mapMode != core.MapCDC {
				reason = "unknown_mode"
			}
			sess.st.fellBack("map_mode_refused:"+reason, "msync: map mode refused", "mode", int(sess.ext.mapMode), "reason", reason, "err", err)
			sess.cfg.MapMode = core.MapHalving
		}
	}
	sess.st.setMode(sess.cfg.MapMode)
	// Accounting must start before sessionState so a first session's
	// manifest build (cache misses, streamed hashing) is attributed to it.
	acct := beginAccounting(s.source())
	defer acct.finish(sess.costs)
	src, serverManifest, mtree, err := s.sessionState()
	if err != nil {
		return sess.fail(err)
	}
	sess.src = src

	var work serverWork
	switch sess.mode {
	case modeManifest:
		work, err = sess.manifestHandshake(serverManifest, mtree.Fingerprint())
	case modeTree:
		work, err = sess.treeHandshake(mtree)
	default:
		err = fmt.Errorf("collection: unknown manifest mode %d", sess.mode)
	}
	if err != nil {
		return sess.fail(err)
	}
	// Verdicts are out: the client is real and transfer has begun, so the
	// handshake deadline no longer applies.
	sess.ts.SetPhaseDeadline(time.Time{})
	if sess.cfg.MapMode == core.MapCDC {
		sess.costs.FilesCDC += len(work.engines)
	}
	return s.serveFiles(sess, work)
}

// serveFiles runs the per-file phases over work: one stream per MUX_ACK
// partition, or one bare stream over everything — which after a journal hit
// has no engines: its ack ordinals are the journal verdicts, answered from
// stored version content.
func (s *Server) serveFiles(sess *session, work serverWork) error {
	counts := work.counts
	if counts == nil {
		counts = []int{len(work.engines)}
	}
	var gauge *obs.Gauge
	if work.counts != nil {
		gauge = s.Metrics.Gauge(obs.MetricStreamsActive)
	}
	f, links := sess.newFramer(len(counts), work.counts != nil, gauge, s.RoundTimeout)
	streams := make([]*serverStream, len(counts))
	off := 0
	for k, c := range counts {
		files := work.engines[off : off+c]
		// The exact bytes the engine synced from, so a fallback is always
		// consistent with the session even if the source changed.
		streams[k] = &serverStream{streamLink: &links[k], files: files, nAck: c,
			full: func(i int) ([]byte, error) { return files[i].data, nil }}
		off += c
	}
	if jf := work.journal; len(jf) > 0 {
		vs := sess.src.(VersionedSource)
		streams[0].nAck = len(jf)
		streams[0].full = func(i int) ([]byte, error) {
			data, err := vs.VersionContent(jf[i].Sum)
			if err != nil {
				return nil, fmt.Errorf("collection: journal fallback %q: %w", jf[i].Path, err)
			}
			return data, nil
		}
	}
	if g := sess.groups; g != nil && len(g.kept) > 0 {
		// The unchanged files of a MANIFEST_SHORT session are stream 0's
		// ordinals after its engines: a receiver whose group sum did not
		// match acks every file of the group, the first one included, and
		// gets it whole. The FULL is built on stream 0's handler alone, so
		// the counting is race-free.
		stm, c := streams[0], streams[0].nAck
		engines := stm.full
		stm.nAck += len(g.kept)
		stm.full = func(i int) ([]byte, error) {
			if i < c {
				return engines(i)
			}
			if (i-c)%sumGroup == 0 {
				sess.costs.SumGroupsFailed++
			}
			sess.costs.FilesUnchanged--
			return sess.src.Load(g.list[g.kept[i-c]].Path)
		}
	}
	return sess.serveStreams(streams, f, s.Metrics)
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
func (s *Server) PushContext(ctx context.Context, conn io.ReadWriter) (_ *stats.Costs, err error) {
	sess := openSession(ctx, conn, s.RoundTimeout, s.Tracer, s.Logger, "server")
	defer func() { sess.close(err) }()
	sess.holder = true
	sess.mode = modeManifest
	if s.TreeManifest {
		sess.mode = modeTree
	}
	// Push receivers never request multiplexing or tree extensions, so the
	// hello carries none and none are granted.
	if err := sess.sendHello(rolePush); err != nil {
		return sess.costs, err
	}
	if err := sess.flush(); err != nil {
		return sess.costs, err
	}
	return sess.costs, s.serve(sess)
}

// serverWork is what a handshake leaves for the per-file phases: engines for
// the files to map, or — never both — the journal verdicts of a journal hit:
// each file's new entry, in verdict order, which ack indexes and full-transfer
// fallbacks reference the way a normal session references its engines.
type serverWork struct {
	engines []syncFile
	journal []ManifestEntry
	counts  []int // the granted stream partition sent as MUX_ACK; nil: one bare stream
}

// manifestFrame reads the receiver's side of flat change detection: its
// MANIFEST, its MANIFEST_PACKED or MANIFEST_SHORT — decoded here, into m — or,
// while ref is still an option, the 16-byte MANIFEST_REF that names it.
func (s *session) manifestFrame(refOK bool) (ft byte, raw []byte, m []ManifestEntry, err error) {
	if ft, raw, err = s.read(); err != nil {
		return 0, nil, nil, err
	}
	s.cost(stats.C2S, stats.PhaseControl, len(raw))
	switch {
	case ft == wire.FrameManifestPacked:
		m, err = unpackManifest(raw, md4.Size)
	case ft == wire.FrameManifestShort:
		m, err = unpackManifest(raw, shortSum)
	case ft == wire.FrameManifest, refOK && ft == wire.FrameManifestRef && len(raw) == md4.Size:
	default:
		err = errFrame(ft, raw)
	}
	return ft, raw, m, err
}

// manifestHandshake runs the flat-manifest handshake: read the client's
// full manifest, reply with per-file verdicts plus new files. When the
// client announced a stored version and the source is versioned, a
// precomputed journal delta replaces map construction entirely (journal
// verdicts carry the payloads inline); any miss falls back to the normal
// path and only appends the server's current version to the verdict frame.
// A client announcing a version above 0 sends the digest of its manifest
// (MANIFEST_REF) in place of the manifest, which a hit never needs; a miss
// asks for it with MANIFEST_WANT — one roundtrip — and goes on as above.
// Either manifest frame, MANIFEST or MANIFEST_PACKED, is the same list from
// here on. serverDigest is ManifestDigest(serverManifest).
func (s *session) manifestHandshake(serverManifest []ManifestEntry, serverDigest [md4.Size]byte) (work serverWork, err error) {
	ft, raw, manifest, err := s.manifestFrame(true)
	if err != nil {
		return work, err
	}
	ref := ft == wire.FrameManifestRef
	vs, stored := s.src.(VersionedSource)
	versioned := stored && s.ext.announce >= 0
	if versioned || ref {
		miss, current := "unversioned", uint64(0) // no store here
		if stored {
			miss, current = "not_announced", vs.CurrentVersion() // a MANIFEST_REF whose hello names no version
		}
		if versioned {
			digest := md4.Sum(raw)
			switch ft {
			case wire.FrameManifestRef:
				copy(digest[:], raw) // by reference: the payload is the digest
			case wire.FrameManifestPacked:
				digest = ManifestDigest(manifest) // the digest is the list's, not the encoding's
			}
			vd, ok := vs.VersionDelta(uint64(s.ext.announce), digest, serverDigest)
			if ok {
				s.costs.JournalHits++
				return s.flatVerdicts(vd.BaseManifest, len(vd.Changes), func(k int) (filelist.Change, []byte) {
					return vd.Changes[k].Change, vd.Changes[k].Payload
				}, int64(vd.Current))
			}
			miss = vd.Miss
		}
		s.costs.JournalMisses++
		if s.ext.announce > 0 || ref { // announcing 0 asks for the version: nothing fell back
			s.st.fellBack("journal_miss:"+miss, "msync: journal miss", "base", s.ext.announce, "current", current, "reason", miss)
		}
		if ref {
			if err := s.send(wire.FrameManifestWant, nil, stats.PhaseControl); err != nil {
				return work, err
			}
			if err := s.flushAnswer(); err != nil {
				return work, err
			}
			if ft, raw, manifest, err = s.manifestFrame(false); err != nil {
				return work, err
			}
		}
	}
	if ft == wire.FrameManifest {
		if manifest, err = decodeManifest(raw); err != nil {
			return work, err
		}
	}
	version := int64(-1)
	if versioned {
		// The announcing client learns the server's current version even on
		// a journal miss, so its next sync can announce something useful.
		version = int64(vs.CurrentVersion())
	}
	if ft == wire.FrameManifestShort {
		widen(manifest, serverManifest)
		s.groups = &sumGroups{list: manifest, kept: make([]int, 0, len(manifest))}
	}
	changes := filelist.Diff(manifest, serverManifest)
	return s.flatVerdicts(manifest, len(changes), func(k int) (filelist.Change, []byte) { return changes[k], nil }, version)
}

// flatVerdicts writes the VERDICTS frame for the receiver's flat list in one
// walk over it beside n changes, at(k) the k-th: filelist.Diff(list, the
// holder's list), each with its payload if it comes from a journal delta. An
// entry no change names is unchanged, a deleted one deleted. With a payload, a
// modified file gets a journal verdict carrying it and an added one rides in
// the new-files trailer as it: no engines run, and the whole transfer happens
// in this frame plus the empty delta round. Without, the file is loaded: a
// modified one is synced or sent whole, an added one sent whole, and one that
// vanished since the manifest was built is deleted or left out. After a
// MANIFEST_SHORT the unchanged files' group sums follow the new files. The
// holder's current version ends the frame unless version is -1.
func (s *session) flatVerdicts(list []ManifestEntry, n int, at func(k int) (filelist.Change, []byte), version int64) (work serverWork, err error) {
	vb := s.beginVerdicts(uint64(len(list)))
	fullBytes, deltaBytes := 0, 0
	var newPaths []string
	var newComp [][]byte
	i := 0 // list[i] is the first entry without a verdict
	unchanged := func() {
		vb.Byte(verdictUnchanged)
		s.costs.FilesUnchanged++
		if s.groups != nil {
			s.groups.kept = append(s.groups.kept, i)
		}
	}
	for k := 0; k < n; k++ {
		ch, payload := at(k)
		if ch.Op == filelist.OpAdd {
			if payload == nil {
				data, err := s.src.Load(ch.New.Path)
				if errors.Is(err, fs.ErrNotExist) {
					continue
				}
				if err != nil {
					return work, err
				}
				payload = delta.Compress(data)
			}
			newPaths = append(newPaths, ch.New.Path)
			newComp = append(newComp, payload)
			continue
		}
		for ; list[i].Path != ch.Old.Path; i++ {
			unchanged()
		}
		i++
		switch {
		case ch.Op == filelist.OpDelete:
			vb.Byte(verdictDelete)
		case payload != nil:
			vb.Byte(verdictJournal)
			vb.Uvarint(uint64(ch.New.Len))
			vb.Raw(ch.New.Sum[:])
			vb.Bytes(payload)
			deltaBytes += len(payload)
			work.journal = append(work.journal, ch.New)
			s.costs.FilesJournal++
		default:
			data, err := s.src.Load(ch.New.Path)
			if errors.Is(err, fs.ErrNotExist) {
				vb.Byte(verdictDelete)
				continue
			}
			if err != nil {
				return work, err
			}
			if work.engines, err = s.changedVerdict(work.engines, ch.New.Path, data, &fullBytes); err != nil {
				return work, err
			}
		}
	}
	for ; i < len(list); i++ {
		unchanged()
	}
	vb.Uvarint(uint64(len(newPaths)))
	for i, p := range newPaths {
		vb.String(p)
		vb.Bytes(newComp[i])
		fullBytes += len(newComp[i])
		s.costs.FilesFull++
	}
	if s.groups != nil {
		vb.Raw(s.groups.digests())
	}
	if version >= 0 {
		vb.Uvarint(uint64(version))
	}
	// A journal hit runs no engines, so there is nothing to multiplex: no
	// MUX_ACK, one bare stream.
	work.counts = muxPartition(work.engines, s.ext.mux)
	return work, s.sendVerdicts(vb.Build(), fullBytes, deltaBytes, work.counts)
}

// treeHandshake runs merkle reconciliation, then answers the client's WANT
// list with verdicts for exactly those files. Whatever this server grants of
// the tree capabilities the hello requested is announced with a TREE_ACK sent
// before the first TREE reply (same flush, no extra roundtrip). With none
// requested the exchange is byte-identical to a pre-extension session.
func (s *session) treeHandshake(mtree *merkle.TreeCache) (work serverWork, err error) {
	resp := merkle.NewResponderCached(mtree)
	granted := s.ext.treeCaps
	resp.Speculative = granted&treeCapSpec != 0

	var want []byte
	for round := 0; want == nil; {
		ft, payload, err := s.read()
		if err != nil {
			return work, err
		}
		switch ft {
		case wire.FrameTree:
			round++
			s.st.begin(obs.PhaseTree, round)
			s.cost(stats.C2S, stats.PhaseControl, len(payload))
			reply, err := resp.Respond(payload)
			if err != nil {
				return work, err
			}
			if round == 1 && granted != 0 {
				if err := s.send(wire.FrameTreeAck, wire.AppendUvarint(nil, uint64(granted)), stats.PhaseControl); err != nil {
					return work, err
				}
			}
			if err := s.send(wire.FrameTree, reply, stats.PhaseControl); err != nil {
				return work, err
			}
			if err := s.flushAnswer(); err != nil {
				return work, err
			}
			s.costs.TreeRounds++
		case wire.FrameWant:
			s.cost(stats.C2S, stats.PhaseControl, len(payload))
			want = payload
		default:
			return work, errFrame(ft, payload)
		}
	}
	s.st.begin(obs.PhaseHandshake, 0)

	wp := wire.NewParser(want)
	n, err := wp.Uvarint()
	if err != nil {
		return work, err
	}
	vb := s.beginVerdicts(n)
	fullBytes := 0
	for k := uint64(0); k < n; k++ {
		path, err := wp.String()
		if err != nil {
			return work, err
		}
		have, err := wp.Byte()
		if err != nil {
			return work, err
		}
		data, err := s.src.Load(path)
		if errors.Is(err, fs.ErrNotExist) {
			vb.Byte(verdictDelete)
			continue
		}
		if err != nil {
			return work, err
		}
		if have == wantAbsent {
			s.fullVerdict(data, &fullBytes)
			continue
		}
		if have == wantAltBasis {
			// The client syncs against an alternate local basis; the map
			// protocol is basis-agnostic, so the serving side is unchanged.
			s.costs.FilesRebased++
		}
		if work.engines, err = s.changedVerdict(work.engines, path, data, &fullBytes); err != nil {
			return work, err
		}
	}
	vb.Uvarint(0) // no trailing new-file section in tree mode
	work.counts = muxPartition(work.engines, s.ext.mux)
	return work, s.sendVerdicts(vb.Build(), fullBytes, 0, work.counts)
}

// beginVerdicts starts the verdict frame in the session scratch: the session
// config, then the number of per-path verdicts that follow.
func (s *session) beginVerdicts(n uint64) *wire.Buffer {
	s.buf.Reset()
	s.buf.Bytes(encodeConfig(&s.cfg))
	s.buf.Uvarint(n)
	return s.buf
}

// fullVerdict writes the verdict that ships a file whole.
func (s *session) fullVerdict(data []byte, fullBytes *int) {
	s.buf.Byte(verdictFull)
	comp := delta.Compress(data)
	s.buf.Bytes(comp)
	*fullBytes += len(comp)
	s.costs.FilesFull++
}

// changedVerdict writes the verdict for a changed file the client holds:
// small files go whole, larger ones get a sync engine, appended to engines.
// The announced length and the engine both come from the same data snapshot,
// so the two sides can never disagree even if the underlying file mutates
// mid-session.
func (s *session) changedVerdict(engines []syncFile, path string, data []byte, fullBytes *int) ([]syncFile, error) {
	if len(data) < s.cfg.MinBlockSize*2 {
		s.fullVerdict(data, fullBytes)
		return engines, nil
	}
	s.buf.Byte(verdictSync)
	s.buf.Uvarint(uint64(len(data)))
	eng, err := core.NewServerFile(data, &s.cfg)
	if err != nil {
		return engines, err
	}
	eng.UseSignature(s.src.Signature(path))
	s.costs.FilesSynced++
	return append(engines, syncFile{path, eng, data}), nil
}

// sendVerdicts flushes the verdict frame with split cost attribution:
// full payloads count as PhaseFull, journal delta payloads as PhaseDelta,
// and the remainder (verdict bytes, lengths, framing) as control. A non-nil
// muxCounts grants stream multiplexing: the MUX_ACK precedes the verdicts in
// the same flush, so granting costs no extra roundtrip.
func (s *session) sendVerdicts(verdicts []byte, fullBytes, deltaBytes int, muxCounts []int) error {
	if len(muxCounts) > 0 {
		if err := s.send(wire.FrameMuxAck, wire.EncodeMuxAck(muxCounts), stats.PhaseControl); err != nil {
			return err
		}
	}
	if err := s.fw.WriteFrame(wire.FrameVerdicts, verdicts); err != nil {
		return err
	}
	s.st.verdictCost(s.costs, len(verdicts), fullBytes, deltaBytes)
	return s.flushAnswer()
}
