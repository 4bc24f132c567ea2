package collection

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"
	"time"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/filelist"
	"msync/internal/merkle"
	"msync/internal/obs"
	"msync/internal/stats"
	"msync/internal/wire"
)

// Server serves one version of a collection to synchronizing clients, and
// can also push its collection to a remote replica (paper §7's asymmetric
// scenario: the data holder initiates).
type Server struct {
	Options
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
// boundary (interrupting blocked I/O when conn supports deadlines), Timeout
// bounds the whole session, HandshakeTimeout its handshake and RoundTimeout
// every individual round.
func (s *Server) ServeContext(ctx context.Context, conn io.ReadWriter) (_ *stats.Costs, err error) {
	sess := openSession(ctx, conn, &s.Options, "server")
	defer func() { sess.close(err) }()
	if s.HandshakeTimeout > 0 {
		sess.ts.SetPhaseDeadline("handshake", time.Now().Add(s.HandshakeTimeout))
	}
	return sess.costs, s.serveConn(sess)
}

// maxHello caps the HELLO payload a server reads.
const maxHello = 64 << 10

// serveConn runs the session body of ServeContext: handshake, role dispatch,
// then serving (or consuming, for a push) the collection. The session carries
// the handshake-phase deadline, lifted once the handshake is over.
func (s *Server) serveConn(sess *session) error {
	sess.holder = true

	// HELLO, capped: nothing is known of the peer before it.
	hello, err := sess.fr.ExpectFrameMax(wire.FrameHello, maxHello)
	if errors.Is(err, wire.ErrFrameTooLarge) {
		err = sess.fail(fmt.Errorf("%w: HELLO over %d bytes", core.ErrProtocol, maxHello))
	}
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
	if sess.mode, err = hp.Byte(); err != nil || sess.mode > modeTree {
		return sess.fail(fmt.Errorf("collection: missing or unknown manifest mode %d", sess.mode))
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
		sess.ts.SetPhaseDeadline("", time.Time{})
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
	src, own, mtree, err := s.sessionState()
	if err != nil {
		return sess.fail(err)
	}
	sess.src = src
	work, err := sess.verdictWalk(newHolderDetector(sess), own, mtree)
	if err != nil {
		return sess.fail(err)
	}
	// Verdicts are out: the client is real and transfer has begun, so the
	// handshake deadline no longer applies.
	sess.ts.SetPhaseDeadline("", time.Time{})
	if sess.cfg.MapMode == core.MapCDC {
		sess.costs.FilesCDC += len(work.engines)
	}
	return s.serveFiles(sess, work)
}

// serveFiles runs the per-file phases over work: one stream per MUX_ACK
// partition, or one bare stream over everything. The settled files are stream
// 0's ack ordinals after its engines, their content the detector's: a receiver
// that could not settle one after all acks it and gets it whole. The FULL is
// built on stream 0's handler alone, so what the detector counts then is
// counted race-free.
func (s *Server) serveFiles(sess *session, work serverWork) error {
	var gauge *obs.Gauge
	if work.counts != nil {
		gauge = s.Metrics.Gauge(obs.MetricStreamsActive)
	}
	f, links, counts := sess.newFramer(work.counts, len(work.engines), gauge, s.RoundTimeout)
	streams := make([]*serverStream, len(counts))
	off := 0
	for k, c := range counts {
		streams[k] = &serverStream{streamLink: &links[k], files: work.engines[off : off+c]}
		off += c
	}
	streams[0].settled, streams[0].full = work.settled, work.full
	return sess.serveStreams(streams, f, s.Metrics)
}

// PushContext updates a remote replica over conn with this server's (newer)
// collection: the inverse transfer direction of Serve, for replicas that
// cannot dial out or for backup-style workflows. The remote end must be a
// Server with AllowPush set. ctx and the options bound it as they bound
// ServeContext.
func (s *Server) PushContext(ctx context.Context, conn io.ReadWriter) (_ *stats.Costs, err error) {
	sess := openSession(ctx, conn, &s.Options, "server")
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

// serverWork is what the verdicts leave for the per-file phases: engines for
// the files to map, and the files settled without one that a FULL may yet be
// asked for — journal verdicts, or the unchanged files of group-tested sums —
// in the order of their ack ordinals past stream 0's engines, full(i,
// settled[i]) the content of the i-th.
type serverWork struct {
	engines []syncFile
	settled []ManifestEntry
	full    func(i int, e ManifestEntry) ([]byte, error)
	counts  []int // the granted stream partition sent as MUX_ACK; nil: one bare stream
}

// verdictWalk runs det's change detection, then writes VERDICTS in one walk
// over the list and the answers it returned: the session config; one verdict
// per entry of list, unchanged where no answer names it; the files added, in
// the new-files trailer; then the detector's trailer. A modified file with a
// journal delta gets a journal verdict carrying it, and becomes settled: no
// engine runs for it. Any other is loaded — sent whole when the receiver has
// no basis for it or it is small, synced otherwise — and deleted if it
// vanished since the list was built (an added one is left out). Whole files
// count as PhaseFull, journal deltas as PhaseDelta, the rest of the frame as
// control. A session that runs engines may be granted streams: the MUX_ACK
// goes first, in the same flush, so granting costs no extra roundtrip.
func (s *session) verdictWalk(det holderDetector, own []ManifestEntry, mtree *merkle.TreeCache) (work serverWork, err error) {
	list, answers, err := det.detect(own, mtree)
	if err != nil {
		return work, err
	}
	vb := s.buf
	vb.Reset()
	vb.Bytes(encodeConfig(&s.cfg))
	vb.Uvarint(uint64(len(list)))
	fullBytes, deltaBytes := 0, 0
	whole := func(comp []byte) {
		vb.Bytes(comp)
		fullBytes += len(comp)
		s.costs.FilesFull++
	}
	var added []answer // the new-files section, each payload the file compressed
	i := 0             // list[i] is the first entry without a verdict
	for _, a := range answers {
		if a.Op == filelist.OpAdd {
			if a.payload == nil {
				data, err := s.src.Load(a.New.Path)
				if errors.Is(err, fs.ErrNotExist) {
					continue
				}
				if err != nil {
					return work, err
				}
				a.payload = delta.Compress(data)
			}
			added = append(added, a)
			continue
		}
		for ; list[i].Path != a.Old.Path; i++ {
			vb.Byte(verdictUnchanged)
			s.costs.FilesUnchanged++
		}
		i++
		switch {
		case a.Op == filelist.OpDelete:
			vb.Byte(verdictDelete)
		case a.payload != nil:
			vb.Byte(verdictJournal)
			vb.Uvarint(uint64(a.New.Len))
			vb.Raw(a.New.Sum[:])
			vb.Bytes(a.payload)
			deltaBytes += len(a.payload)
			work.settled = append(work.settled, a.New)
			s.costs.FilesJournal++
		default:
			data, err := s.src.Load(a.New.Path)
			if errors.Is(err, fs.ErrNotExist) {
				vb.Byte(verdictDelete)
				continue
			}
			if err != nil {
				return work, err
			}
			if a.have == wantAltBasis {
				// The receiver syncs against an alternate local basis; the
				// map protocol is basis-agnostic, so this side is unchanged.
				s.costs.FilesRebased++
			}
			if a.have == wantAbsent || len(data) < s.cfg.MinBlockSize*2 {
				vb.Byte(verdictFull)
				whole(delta.Compress(data))
				continue
			}
			// The announced length and the engine both come from the same
			// snapshot, so the two ends never disagree, even if the file
			// changes mid-session.
			vb.Byte(verdictSync)
			vb.Uvarint(uint64(len(data)))
			eng, err := core.NewServerFile(data, &s.cfg)
			if err != nil {
				return work, err
			}
			eng.UseSignature(s.src.Signature(a.New.Path))
			s.costs.FilesSynced++
			work.engines = append(work.engines, syncFile{a.New.Path, eng, data})
		}
	}
	for ; i < len(list); i++ {
		vb.Byte(verdictUnchanged)
		s.costs.FilesUnchanged++
	}
	vb.Uvarint(uint64(len(added)))
	for _, a := range added {
		vb.String(a.New.Path)
		whole(a.payload)
	}
	det.trailer(vb, list, &work)
	// A session without engines has nothing to multiplex: no MUX_ACK, one
	// bare stream.
	if work.counts = muxPartition(work.engines, s.ext.mux); work.counts != nil {
		err = s.send(wire.FrameMuxAck, wire.EncodeMuxAck(work.counts), stats.PhaseControl)
	}
	if err == nil {
		err = s.fw.WriteFrame(wire.FrameVerdicts, vb.Build())
	}
	if err != nil {
		return work, err
	}
	s.st.verdictCost(s.costs, vb.Len(), fullBytes, deltaBytes)
	return work, s.flushAnswer()
}
