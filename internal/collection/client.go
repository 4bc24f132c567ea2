package collection

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/md4"
	"msync/internal/pool"
	"msync/internal/stats"
	"msync/internal/wire"
)

// ErrListMismatch marks a session after a MANIFEST_TABLE whose receiver's
// list, with the session's changes applied, is not the holder's: its digest
// is not the one VERDICTS ended with. The session returns no result, so
// nothing is applied. It matches core.ErrProtocol too.
var ErrListMismatch = fmt.Errorf("%w: the synced list is not the holder's", core.ErrProtocol)

// ErrHandshake marks session failures that happened before any file content
// was exchanged (dialing aside: hello, change detection, verdicts). Such
// failures are safe to retry — neither side has committed to anything.
// Test with errors.Is.
var ErrHandshake = errors.New("collection: handshake failed")

// handshakeError wraps an error so errors.Is(err, ErrHandshake) holds while
// the underlying cause (deadline, EOF, ...) stays inspectable via Unwrap.
type handshakeError struct{ err error }

func (e *handshakeError) Error() string        { return "collection: handshake: " + e.err.Error() }
func (e *handshakeError) Unwrap() error        { return e.err }
func (e *handshakeError) Is(target error) bool { return target == ErrHandshake }

// asHandshake tags err as a handshake-phase failure (nil stays nil).
func asHandshake(err error) error {
	if err == nil {
		return nil
	}
	return &handshakeError{err: err}
}

// Client synchronizes a local collection copy against a Server.
type Client struct {
	Options
	src Source
	// trees carries the client's built merkle trees across sessions (and,
	// when the source has a signature-cache directory, across processes),
	// so a repeat tree-mode sync updates its tree incrementally from the
	// manifest diff instead of rebuilding O(n) nodes.
	trees treeState
}

// NewClient creates a client over the local (path → content) collection.
func NewClient(files map[string][]byte) *Client {
	return &Client{src: MapSource(files)}
}

// NewClientSource creates a client over an arbitrary collection source.
func NewClientSource(src Source) *Client {
	return &Client{src: src}
}

// clientFile pairs a path with its per-file client engine. For cross-file
// matched files, tryout holds candidate engines over alternate local bases;
// the first map round picks the best-matching one (core.PickBasis) and it
// becomes the engine. A journal verdict is a clientFile without an engine:
// its delta came with the verdict, and only a fallback can still touch it.
// newLen is the length the verdict announced; a FULL fallback must decode to it.
// A file the verdicts settled without an engine has its ack ordinal past the
// stream's engines, and is owed a FULL, whatever the DELTA says, when it is
// not settled after all.
type clientFile struct {
	path   string
	newLen int
	engine *core.ClientFile
	tryout []*core.ClientFile
	bytes  int64 // payload bytes attributed to the file (Result.PerFile)
	ack    int
	owed   bool
}

// Result is the outcome of one synchronization session.
type Result struct {
	// Files is the updated collection. Under Options.LazyResult it holds only
	// the files the session wrote (synced, full, new); combined with
	// Unchanged and Deleted it still describes the complete outcome.
	Files map[string][]byte
	// Unchanged lists paths the session left untouched.
	Unchanged []string
	// Deleted lists local paths the server no longer has.
	Deleted []string
	// Costs is the session's cost accounting from the client's perspective.
	Costs *stats.Costs
	// PerFile attributes payload bytes to individual synchronized files
	// (map-construction sections, deltas and full transfers; shared framing
	// and control traffic are not attributed).
	PerFile map[string]int64
	// Version is the server's current store version, reported when the
	// client announced one (Options.AnnounceVersion) and the server is
	// versioned; 0 otherwise. Announce it as BaseVersion on the next sync
	// of the updated collection to receive a journal delta.
	Version uint64
}

// SyncContext runs one session over conn under ctx: cancellation or a
// context deadline aborts the session at the next frame boundary (and
// interrupts blocked I/O when conn supports deadlines), Timeout bounds the
// whole session and RoundTimeout every individual round.
func (c *Client) SyncContext(ctx context.Context, conn io.ReadWriter) (res *Result, err error) {
	s := openSession(ctx, conn, &c.Options, "client")
	defer func() { s.close(err) }()
	acct := beginAccounting(c.src)
	defer acct.finish(s.costs)
	s.src = c.src
	s.cfg.Workers = c.Workers

	// HELLO: the options this client was given, as mode and extensions.
	s.mode = modeManifest
	if c.TreeManifest {
		s.mode = modeTree
		if c.SpeculativeDescent {
			s.ext.treeCaps |= treeCapSpec
		}
		if c.CrossFileMatch {
			s.ext.treeCaps |= treeCapCross
		}
	}
	if c.AnnounceVersion {
		s.ext.announce = int64(c.BaseVersion)
	}
	s.ext.mux = c.MuxStreams
	s.ext.mapMode = c.MapMode
	if err := s.sendHello(rolePull); err != nil {
		return nil, asHandshake(err)
	}
	return s.consume(c.LazyResult, &c.trees)
}

// consume runs the receiving role of a session (after any handshake
// header): announce local state, answer map-construction rounds, apply
// deltas. It is shared by the pulling client and by a server accepting a
// push. In the returned Costs, C2S is traffic from the data receiver to the
// data holder. Failures up to and including the verdict exchange are tagged
// with ErrHandshake (retry-safe); ctx is checked at every cycle boundary.
//
// The session's hello says what to expect: its mode picks the change
// detector, and a MUX_ACK comes only if streams were requested.
// s.cfg.Workers is the receiver's own budget — never the remote's: the
// protocol config arrives over the wire, but Workers is deliberately not
// serialized.
//
// With lazy set (sources that can re-read their own files), unchanged
// content is never materialized: the result lists unchanged and deleted
// paths by name and Files holds only what the session wrote. trees is the
// cross-session tree cache (nil: none).
func (s *session) consume(lazy bool, trees *treeState) (*Result, error) {
	res := &Result{Costs: s.costs, Files: make(map[string][]byte)}
	det := s.newReceiverDetector(res, lazy, trees)
	manifest, err := s.src.Manifest()
	var list []ManifestEntry
	if err == nil {
		list, err = det.announce(manifest)
	}
	if err == nil {
		err = s.flush()
	}
	if err != nil {
		return nil, asHandshake(err)
	}
	work, err := s.verdicts(res, det, list, lazy)
	if err == nil {
		err = s.receive(res, work)
	}
	if err == nil && work.digest != nil {
		err = checkList(res, work)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// checkList holds this end's list, once the session is applied, to the
// holder's digest that ended VERDICTS answering a MANIFEST_TABLE: the files
// the verdicts did not name as they were, the named and new ones as the
// session left them, a deleted one gone.
func checkList(res *Result, work *clientWork) error {
	for _, path := range work.written {
		if data, ok := res.Files[path]; ok {
			work.after = append(work.after, ManifestEntry{Path: path, Len: len(data), Sum: md4.Sum(data)})
		}
	}
	slices.SortFunc(work.after, func(a, b ManifestEntry) int { return cmp.Compare(a.Path, b.Path) })
	if ManifestDigest(work.after) != [md4.Size]byte(work.digest) {
		return ErrListMismatch
	}
	return nil
}

// keep settles a path the holder has as it is here: unchanged.
func (s *session) keep(res *Result, path string, lazy bool) (err error) {
	if lazy {
		res.Unchanged = append(res.Unchanged, path)
	} else {
		res.Files[path], err = s.src.Load(path)
	}
	s.costs.FilesUnchanged++
	return err
}

// drop settles a path the holder no longer has: deleted.
func (s *session) drop(res *Result, path string) {
	delete(res.Files, path)
	res.Deleted = append(res.Deleted, path)
}

// clientWork is what the verdicts leave for the per-file phases: the files to
// map, with their engines, and the files settled in the verdicts that may
// still need a FULL. Those are stream 0's ack ordinals after its engines:
// the journal verdicts of an engine-less session, whose deltas were applied
// on the spot, or the members of failed sum groups, acked by their place
// among the files judged unchanged. unchecked counts the journal verdicts
// whose delta did not decode or check. After a MANIFEST_TABLE, digest is the
// holder's list digest, after the entries the verdicts did not name, and
// written the paths they named or sent new: what checkList reads.
type clientWork struct {
	files     []clientFile // the engines' files
	settled   []clientFile
	counts    []int // the MUX_ACK's stream partition; nil: one bare stream
	unchecked int
	digest    []byte
	after     []ManifestEntry
	written   []string
}

// verdicts reads the holder's answer to change detection — optionally
// preceded by the MUX_ACK that grants requested streams — and settles every
// path it can: unchanged, deleted, sent in full, patched from the journal.
// list is what det announced, in verdict order — or, when det's names say the
// verdicts name their files, each verdict follows the path hash of its entry
// of list, and every entry not named is unchanged. What is left is the work
// for the per-file phases.
func (s *session) verdicts(res *Result, det receiverDetector, list []ManifestEntry, lazy bool) (*clientWork, error) {
	muxRaw, vraw, err := s.readGranted(det.read, wire.FrameMuxAck, wire.FrameVerdicts, s.ext.mux > 0)
	if err != nil {
		return nil, asHandshake(err)
	}
	s.answered()
	vp := wire.NewParser(vraw)
	cfgRaw, err := vp.Bytes()
	cfg, err2 := decodeConfig(cfgRaw)
	if err = cmp.Or(err, err2); err != nil {
		return nil, err
	}
	cfg.Workers = s.cfg.Workers
	s.cfg = cfg
	s.st.setMode(cfg.MapMode)
	if s.ext.mapMode != core.MapHalving && cfg.MapMode != s.ext.mapMode {
		s.st.fellBack("map_mode_not_granted", "msync: map mode not granted", "mode", int(s.ext.mapMode), "granted", int(cfg.MapMode))
	}
	nv, err := vp.Uvarint()
	names := det.named()
	if err != nil || nv > uint64(len(list)) || names == nil && nv != uint64(len(list)) {
		return nil, fmt.Errorf("%w: verdict count mismatch", core.ErrProtocol)
	}

	work := &clientWork{}
	var named []bool
	if names != nil {
		named = make([]bool, len(list))
	}
	kept := make([]int, 0, len(list))
	fullBytes, deltaBytes := 0, 0
	full := func(path, what string) error {
		comp, err := vp.Bytes()
		if err != nil {
			return err
		}
		fullBytes += len(comp)
		if res.Files[path], err = delta.Decompress(comp); err != nil {
			return fmt.Errorf("%w: %s file %q: %w", core.ErrProtocol, what, path, err)
		}
		s.costs.FilesFull++
		return nil
	}
	for k := 0; k < int(nv); k++ {
		i := k
		if names != nil {
			key, err := vp.Raw(8)
			ok := err == nil
			if ok {
				i, ok = names[binary.LittleEndian.Uint64(key)]
			}
			if !ok || named[i] {
				return nil, fmt.Errorf("%w: verdict %d names no file of the table, or one named before", core.ErrProtocol, k)
			}
			named[i] = true
			work.written = append(work.written, list[i].Path)
		}
		path := list[i].Path
		verdict, err := vp.Byte()
		if err != nil {
			return nil, err
		}
		switch verdict {
		case verdictUnchanged:
			if err := s.keep(res, path, lazy); err != nil {
				return nil, err
			}
			kept = append(kept, i)
		case verdictDelete:
			s.drop(res, path)
		case verdictFull:
			if err := full(path, "full"); err != nil {
				return nil, err
			}
		case verdictSync:
			newLen, err := vp.Uvarint()
			if err != nil {
				return nil, err
			}
			cf, err := s.newClientFile(path, int(newLen), det.bases(path))
			if err != nil {
				return nil, err
			}
			work.files = append(work.files, cf)
		case verdictJournal:
			newLen, err1 := vp.Uvarint()
			sum, err2 := vp.Raw(md4.Size)
			payload, err3 := vp.Bytes()
			if err := cmp.Or(err1, err2, err3); err != nil {
				return nil, err
			}
			deltaBytes += len(payload)
			// Apply the precomputed delta against the local copy; any
			// failure (missing file, corrupt payload, content drift) lands
			// on the ack list for a whole-file fallback, exactly like a
			// failed engine verification.
			old, err := s.src.Load(path)
			if err == nil {
				old, err = delta.DecodeLen(old, payload, int(newLen))
			}
			applied := err == nil && md4.Sum(old) == [md4.Size]byte(sum)
			if applied {
				res.Files[path] = old
			} else {
				work.unchecked++
			}
			work.settled = append(work.settled, clientFile{path: path, newLen: int(newLen), bytes: int64(len(payload)), ack: len(work.settled), owed: !applied})
			s.costs.FilesJournal++
		default:
			return nil, fmt.Errorf("%w: unknown verdict %d", core.ErrProtocol, verdict)
		}
	}
	for i, e := range list {
		if names != nil && !named[i] {
			if err := s.keep(res, e.Path, lazy); err != nil {
				return nil, err
			}
			work.after = append(work.after, e)
		}
	}
	if len(work.settled) > 0 && len(work.files) > 0 {
		// Journal sessions never run engines; a server mixing the two would
		// make ack indexes ambiguous.
		return nil, fmt.Errorf("%w: mixed journal and sync verdicts", core.ErrProtocol)
	}
	nNew, err := vp.Uvarint()
	if err != nil {
		return nil, err
	}
	for k := uint64(0); k < nNew; k++ {
		path, err := vp.String()
		if err != nil {
			return nil, err
		}
		if err := full(path, "new"); err != nil {
			return nil, err
		}
		if names != nil {
			work.written = append(work.written, path)
		}
	}
	if err := det.trailer(vp, list, kept, work); err != nil {
		return nil, err
	}
	if vp.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the verdicts", core.ErrProtocol, vp.Remaining())
	}
	s.st.verdictCost(s.costs, len(vraw), fullBytes, deltaBytes)
	if muxRaw != nil {
		// The server only grants multiplexing to sessions running sync
		// engines: a partition of none is refused.
		if work.counts, err = wire.ParseMuxAck(muxRaw, len(work.files)); err != nil {
			return nil, err
		}
	}
	return work, nil
}

// newClientFile builds the engine for a sync verdict: over the same-path local
// file, or — for a cross-file near-match — one candidate engine per alternate
// local basis, of which the first map round picks the best (see respond /
// core.PickBasis).
func (s *session) newClientFile(path string, newLen int, alts []string) (clientFile, error) {
	cf := clientFile{path: path, newLen: newLen}
	s.costs.FilesSynced++
	if s.cfg.MapMode == core.MapCDC {
		s.costs.FilesCDC++
	}
	if len(alts) == 0 {
		old, err := s.src.Load(path)
		if err != nil {
			return cf, err
		}
		cf.engine, err = core.NewClientFile(old, newLen, &s.cfg)
		return cf, err
	}
	s.costs.FilesRebased++
	for _, ap := range alts {
		old, err := s.src.Load(ap)
		if err != nil {
			continue // basis vanished: try the rest
		}
		eng, err := core.NewClientFile(old, newLen, &s.cfg)
		if err != nil {
			return cf, err
		}
		cf.tryout = append(cf.tryout, eng)
	}
	if len(cf.tryout) == 0 {
		eng, err := core.NewClientFile(nil, newLen, &s.cfg)
		if err != nil {
			return cf, err
		}
		cf.tryout = append(cf.tryout, eng)
	}
	cf.engine = cf.tryout[0]
	return cf, nil
}

// receive runs the per-file phases over work: the streams the MUX_ACK
// announced, or one bare stream over everything — which for a journal session
// has no engines, only the ack ordinals of its journal verdicts. The settled
// files follow stream 0's engines. Files whose whole-file check failed — an
// engine's, or a journal delta's — came whole in a FULL: noted and logged
// once.
func (s *session) receive(res *Result, work *clientWork) error {
	res.PerFile = make(map[string]int64, len(work.files))
	f, links, counts := s.newFramer(work.counts, len(work.files), nil, 0)
	streams := make([]*clientStream, len(counts))
	off := 0
	for k, c := range counts {
		streams[k] = &clientStream{streamLink: &links[k], files: work.files[off : off+c], nEng: c}
		off += c
	}
	streams[0].files = append(streams[0].files[:counts[0]:counts[0]], work.settled...)
	if err := s.consumeStreams(streams, f, res); err != nil {
		return err
	}
	n := work.unchecked
	for _, cs := range streams {
		n += sort.SearchInts(cs.failed, cs.nEng) // the engines' failures come first
	}
	if n > 0 {
		s.st.fellBack(fmt.Sprintf("whole_file_check_failed:%d", n), "msync: whole-file check failed", "files", n)
	}
	return nil
}

// respond handles one ROUND_HASHES or CONFIRM frame and builds the reply in
// the stream's buffer. Engine work fans out across workers; replies are
// gathered into index-addressed slots and written in job order, so the reply
// frame is byte-identical for every worker count.
func (cs *clientStream) respond(workers int, frameType byte, payload []byte) ([]byte, error) {
	files := cs.engines()
	jobs, err := parseSections(payload, len(files), true)
	if err != nil {
		return nil, err
	}
	replies := make([][]byte, len(jobs)) // nil = no reply for this file
	err = pool.Do(workers, len(jobs), func(k int) error {
		cf := &files[jobs[k].idx]
		eng := cf.engine
		var err error
		switch {
		case frameType == wire.FrameConfirm:
			more, err := eng.AbsorbConfirm(jobs[k].body)
			if err != nil {
				return fmt.Errorf("collection: file %q: %w", cf.path, err)
			}
			if more {
				replies[k] = eng.EmitBatch()
			}
			return nil
		case len(cf.tryout) > 0:
			// Alternate-basis candidates race on the first hash round; the
			// best-matching one becomes the engine for good.
			if eng, err = core.PickBasis(cf.tryout, jobs[k].body); err == nil {
				cf.engine, cf.tryout = eng, nil
			}
		default:
			err = eng.AbsorbHashes(jobs[k].body)
		}
		if err != nil {
			return fmt.Errorf("collection: file %q: %w", cf.path, err)
		}
		replies[k] = eng.EmitReply()
		return nil
	})
	if err != nil {
		return nil, err
	}
	count := 0
	for _, r := range replies {
		if r != nil {
			count++
		}
	}
	rb := cs.buf
	rb.Reset()
	rb.Uvarint(uint64(count))
	for k, r := range replies {
		files[jobs[k].idx].bytes += int64(len(jobs[k].body) + len(r))
		if r != nil {
			rb.Uvarint(uint64(jobs[k].idx))
			rb.Bytes(r)
		}
	}
	return rb.Build(), nil
}
