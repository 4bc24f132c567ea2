package collection

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path"
	"slices"
	"sort"
	"sync"
	"time"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/merkle"
	"msync/internal/obs"
	"msync/internal/pool"
	"msync/internal/stats"
	"msync/internal/wire"
)

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
	src Source
	// LazyResult, for sources that can re-read their own files (TreeSource),
	// keeps unchanged files out of Result.Files: the result then holds only
	// written content, with unchanged and deleted paths listed by name, so
	// peak memory scales with the change set instead of the collection.
	LazyResult bool
	// TreeManifest switches change detection from the flat fingerprint
	// manifest to merkle-tree reconciliation, which costs O(changed·log n)
	// instead of O(n) — the right choice when almost nothing changed.
	TreeManifest bool
	// SpeculativeDescent requests (hello extension 3) that tree-mode
	// descent answers carry several levels of digests at once, finishing
	// a typical descent in roughly half the roundtrips. Ignored by
	// servers that don't support it; the session then runs the legacy
	// one-level descent byte-identically.
	SpeculativeDescent bool
	// CrossFileMatch requests (hello extension 3) cross-file matching in
	// tree mode: files the server has under a new path are first matched
	// against the whole local collection by content fingerprint (a pure
	// rename then costs zero content bytes — the client copies its local
	// file), and unmatched new files may be synced against an alternate
	// local basis named in the WANT exchange instead of transferred in
	// full.
	CrossFileMatch bool
	// trees carries the client's built merkle trees across sessions (and,
	// when the source has a signature-cache directory, across processes),
	// so a repeat tree-mode sync updates its tree incrementally from the
	// manifest diff instead of rebuilding O(n) nodes.
	trees treeState
	// RoundTimeout, if positive, bounds each frame-level read/write of a
	// session (and therefore each protocol round), so a stalled server
	// fails the session instead of hanging it. Requires a connection with
	// deadline support (net.Conn, transport.PipeEnd) to interrupt blocked
	// I/O.
	RoundTimeout time.Duration
	// Workers bounds the client's local parallelism: per-file engine
	// fan-out plus the engines' internal sharded scans and batched
	// verification hashing. 0 means runtime.GOMAXPROCS(0); 1 is fully
	// serial. Purely an execution knob — the wire output is bit-identical
	// for every value.
	Workers int
	// AnnounceVersion adds the optional version extension to the hello:
	// the client announces BaseVersion (0 = none known) and a versioned
	// server may answer with a precomputed journal delta instead of map
	// construction. Above 0 the client names its manifest by its digest
	// (MANIFEST_REF) and sends the manifest only to a server that asks — one
	// without a store, or one that cannot serve that version — at the price
	// of one roundtrip. The server's current version is reported back in
	// Result.Version.
	AnnounceVersion bool
	// BaseVersion is the stored version this client's collection matches,
	// as learned from a previous Result.Version.
	BaseVersion uint64
	// MuxStreams, if positive, requests stream multiplexing (hello
	// extension 2) with up to that many concurrent streams: the server
	// partitions the sync files into streams whose map rounds, deltas and
	// fallbacks interleave on the one connection, so slow files no longer
	// gate fast ones and tiny files share roundtrips. Servers that don't
	// multiplex (or sessions with nothing to sync) ignore the request and
	// the session runs as one unwrapped stream over all its files,
	// byte-identical to a session that never asked.
	MuxStreams int
	// MapMode requests a map-construction mode (hello extension 4):
	// core.MapCDC asks the server to derive block boundaries from
	// content-defined chunk cuts instead of recursive halving. The server
	// is authoritative — it grants the mode by echoing it in the session
	// config it ships with the verdicts, and servers that predate the
	// extension ignore it, so the session falls back to halving
	// byte-identically. The zero value never emits the extension.
	MapMode core.MapMode
	// Tracer, if set, receives span-like events per protocol phase; the
	// summed frame bytes of a session's spans equal its Costs wire totals.
	// Tracing never changes what goes on the wire.
	Tracer obs.Tracer
	// Logger, if set, receives structured session lifecycle logs. nil
	// disables logging entirely.
	Logger *slog.Logger
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
	// Files is the updated collection. Under Client.LazyResult it holds only
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
	// client announced one (Client.AnnounceVersion) and the server is
	// versioned; 0 otherwise. Announce it as BaseVersion on the next sync
	// of the updated collection to receive a journal delta.
	Version uint64
}

// Sync runs one session over conn and returns the updated collection.
// It is SyncContext with a background context.
func (c *Client) Sync(conn io.ReadWriter) (*Result, error) {
	return c.SyncContext(context.Background(), conn)
}

// SyncContext runs one session over conn under ctx: cancellation or a
// context deadline aborts the session at the next frame boundary (and
// interrupts blocked I/O when conn supports deadlines), and RoundTimeout
// bounds every individual round.
func (c *Client) SyncContext(ctx context.Context, conn io.ReadWriter) (res *Result, err error) {
	s := openSession(ctx, conn, c.RoundTimeout, c.Tracer, c.Logger, "client")
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
// The session's hello says what to expect: tree or flat change detection,
// journal verdicts and a trailing version only if a version was announced, a
// MUX_ACK only if streams were requested. s.cfg.Workers is the receiver's own
// budget — never the remote's: the protocol config arrives over the wire, but
// Workers is deliberately not serialized.
//
// With lazy set (sources that can re-read their own files), unchanged
// content is never materialized: the result lists unchanged and deleted
// paths by name and Files holds only what the session wrote. trees is the
// cross-session tree cache (nil: none).
func (s *session) consume(lazy bool, trees *treeState) (*Result, error) {
	res := &Result{Costs: s.costs, Files: make(map[string][]byte)}
	paths, tr, err := s.detect(res, lazy, trees)
	if err != nil {
		return nil, asHandshake(err)
	}
	work, err := s.verdicts(res, paths, tr, lazy)
	if err != nil {
		return nil, err
	}
	if err := s.receive(res, work); err != nil {
		return nil, err
	}
	return res, nil
}

// detect is change detection: it tells the holder what this end has — the
// flat manifest (by reference when a stored version above 0 is announced), or
// a merkle descent and a WANT list — and returns the paths
// under discussion in verdict order. In tree mode it also settles, in res,
// every local path the descent already decided: unchanged, deleted, or
// copied from a renamed local file.
func (s *session) detect(res *Result, lazy bool, trees *treeState) ([]string, *treeResult, error) {
	manifest, err := s.src.Manifest()
	if err != nil {
		return nil, nil, err
	}
	if s.mode != modeTree {
		if err := s.sendManifest(manifest, s.ext.announce > 0); err != nil {
			return nil, nil, err
		}
		paths := make([]string, len(manifest))
		for i, e := range manifest {
			paths[i] = e.Path
		}
		return paths, nil, s.flush()
	}

	tr, err := s.treeDetect(manifest, trees)
	if err != nil {
		return nil, nil, err
	}
	res.Deleted = tr.deleted
	if lazy {
		res.Unchanged = tr.unchanged
	} else {
		for _, p := range tr.unchanged {
			if res.Files[p], err = s.src.Load(p); err != nil {
				return nil, nil, err
			}
		}
	}
	// Cross-file renames: wanted content that already exists locally under
	// another path is copied, not transferred — zero wire bytes.
	copies := make([]string, 0, len(tr.localCopy))
	for p := range tr.localCopy {
		copies = append(copies, p)
	}
	sort.Strings(copies)
	for _, p := range copies {
		data, err := s.src.Load(tr.localCopy[p])
		if err != nil {
			return nil, nil, err
		}
		res.Files[p] = data
		s.costs.FilesRenamed++
		s.costs.RenameBytesSaved += int64(len(data))
	}
	return tr.verdictPaths, tr, s.flush()
}

// sendManifest sends the flat manifest. By reference (ref: a stored version
// above 0 is announced, and the holder's store may hold this very list under
// it) that is the digest of its MANIFEST encoding as MANIFEST_REF, and the
// list is withheld until a MANIFEST_WANT asks for it. Otherwise, where packing
// pays — the packed frame strictly shorter than MANIFEST — it is MANIFEST_SHORT,
// or MANIFEST_PACKED when only the wider frame is within the holder's caps;
// MANIFEST when neither is. The choice is noted on the handshake span.
func (s *session) sendManifest(manifest []ManifestEntry, ref bool) error {
	s.buf.Reset()
	filelist.Append(s.buf, manifest)
	legacy := s.buf.Build()
	if ref {
		digest := md4.Sum(legacy)
		s.withheld, s.owed = manifest, true
		return s.send(wire.FrameManifestRef, digest[:], stats.PhaseControl)
	}
	ft, payload := wire.FrameManifest, legacy
	short, fits := packManifest(manifest, shortSum)
	packed := len(short) + (md4.Size-shortSum)*len(manifest) // the same column, wider sums
	switch {
	case packed >= len(legacy):
	case fits:
		ft, payload = wire.FrameManifestShort, short
		s.groups = &sumGroups{list: manifest, kept: make([]int, 0, len(manifest))}
	default:
		if p, fits := packManifest(manifest, md4.Size); fits {
			ft, payload = wire.FrameManifestPacked, p
		}
	}
	s.st.manifestSent(wire.FrameName(ft), len(short), packed, len(legacy))
	return s.send(ft, payload, stats.PhaseControl)
}

// clientWork is what the verdicts leave for the per-file phases: the files to
// map, with their engines, and the files settled in the verdicts that may
// still need a FULL. Those are stream 0's ack ordinals after its engines:
// the journal verdicts of an engine-less session, whose deltas were applied
// on the spot, or the members of failed sum groups, acked by their place
// among the files judged unchanged.
type clientWork struct {
	files   []clientFile // the engines' files
	settled []clientFile
	counts  []int // the MUX_ACK's stream partition; nil: one bare stream
}

// verdicts reads the holder's answer to change detection — optionally
// preceded by the MUX_ACK that grants requested streams — and settles every
// path it can: unchanged, deleted, sent in full, patched from the journal.
// What is left is the work for the per-file phases.
func (s *session) verdicts(res *Result, paths []string, tr *treeResult, lazy bool) (*clientWork, error) {
	muxRaw, vraw, err := s.readGranted(wire.FrameMuxAck, wire.FrameVerdicts, s.ext.mux > 0)
	if err != nil {
		return nil, asHandshake(err)
	}
	s.answered()
	vp := wire.NewParser(vraw)
	cfgRaw, err := vp.Bytes()
	if err != nil {
		return nil, err
	}
	cfg, err := decodeConfig(cfgRaw)
	if err != nil {
		return nil, err
	}
	cfg.Workers = s.cfg.Workers
	s.cfg = cfg
	s.st.setMode(cfg.MapMode)
	nv, err := vp.Uvarint()
	if err != nil || nv != uint64(len(paths)) {
		return nil, fmt.Errorf("collection: verdict count mismatch")
	}

	work := &clientWork{}
	fullBytes, deltaBytes := 0, 0
	full := func(path, what string) error {
		comp, err := vp.Bytes()
		if err != nil {
			return err
		}
		fullBytes += len(comp)
		if res.Files[path], err = delta.Decompress(comp); err != nil {
			return fmt.Errorf("collection: %s file %q: %w", what, path, err)
		}
		s.costs.FilesFull++
		return nil
	}
	for i, path := range paths {
		verdict, err := vp.Byte()
		if err != nil {
			return nil, err
		}
		switch verdict {
		case verdictUnchanged:
			if lazy {
				res.Unchanged = append(res.Unchanged, path)
			} else if res.Files[path], err = s.src.Load(path); err != nil {
				return nil, err
			}
			s.costs.FilesUnchanged++
			if s.groups != nil {
				s.groups.kept = append(s.groups.kept, i)
			}
		case verdictDelete:
			delete(res.Files, path)
			res.Deleted = append(res.Deleted, path)
		case verdictFull:
			if err := full(path, "full"); err != nil {
				return nil, err
			}
		case verdictSync:
			newLen, err := vp.Uvarint()
			if err != nil {
				return nil, err
			}
			var alts []string
			if tr != nil {
				alts = tr.altBases[path]
			}
			cf, err := s.newClientFile(path, int(newLen), alts)
			if err != nil {
				return nil, err
			}
			work.files = append(work.files, cf)
		case verdictJournal:
			newLen, err := vp.Uvarint()
			if err != nil {
				return nil, err
			}
			sumRaw, err := vp.Raw(md4.Size)
			if err != nil {
				return nil, err
			}
			payload, err := vp.Bytes()
			if err != nil {
				return nil, err
			}
			deltaBytes += len(payload)
			// Apply the precomputed delta against the local copy; any
			// failure (missing file, corrupt payload, content drift) lands
			// on the ack list for a whole-file fallback, exactly like a
			// failed engine verification.
			applied := false
			if old, err := s.src.Load(path); err == nil {
				if data, err := delta.DecodeLen(old, payload, int(newLen)); err == nil && md4.Sum(data) == [md4.Size]byte(sumRaw) {
					res.Files[path] = data
					applied = true
				}
			}
			work.settled = append(work.settled, clientFile{path: path, newLen: int(newLen), bytes: int64(len(payload)), ack: len(work.settled), owed: !applied})
			s.costs.FilesJournal++
		default:
			return nil, fmt.Errorf("collection: unknown verdict %d", verdict)
		}
	}
	if len(work.settled) > 0 && len(work.files) > 0 {
		// Journal sessions never run engines; a server mixing the two would
		// make ack indexes ambiguous.
		return nil, fmt.Errorf("collection: mixed journal and sync verdicts")
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
	}
	if s.groups != nil {
		if err := s.checkGroups(res, vp, work, lazy); err != nil {
			return nil, err
		}
	}
	if s.ext.announce >= 0 && s.mode != modeTree && vp.Remaining() > 0 {
		// Versioned servers append their current version for announcing
		// clients; its absence just means the server has no store.
		if v, err := vp.Uvarint(); err == nil {
			res.Version = v
		}
	}
	if vp.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the verdicts", core.ErrProtocol, vp.Remaining())
	}
	s.st.verdictCost(s.costs, len(vraw), fullBytes, deltaBytes)

	if muxRaw != nil {
		if len(work.files) == 0 {
			// The server only grants multiplexing to sessions running sync
			// engines; anything else is a protocol violation.
			return nil, fmt.Errorf("collection: unexpected mux ack")
		}
		if work.counts, err = wire.ParseMuxAck(muxRaw, len(work.files)); err != nil {
			return nil, err
		}
	}
	return work, nil
}

// checkGroups reads the VERDICTS trailer that answers a MANIFEST_SHORT — one
// MD4 per group of the files judged unchanged — and compares each with the
// digest of this end's own full sums. The files of a group that differs are
// unchanged no longer: they join the ack ordinals past the engines as their
// place among the unchanged files, so the holder's FULL brings them whole.
func (s *session) checkGroups(res *Result, vp *wire.Parser, work *clientWork, lazy bool) error {
	g, want := s.groups, s.groups.digests()
	trailer, err := vp.Raw(len(want))
	if err != nil || len(work.settled) > 0 { // journal verdicts never answer MANIFEST_SHORT
		return fmt.Errorf("%w: VERDICTS without the group sums of %d files", core.ErrProtocol, len(g.kept))
	}
	for k := 0; k < len(g.kept); k += sumGroup {
		if at := k / sumGroup * md4.Size; bytes.Equal(want[at:at+md4.Size], trailer[at:at+md4.Size]) {
			continue
		}
		s.costs.SumGroupsFailed++
		for u := k; u < min(k+sumGroup, len(g.kept)); u++ {
			e := g.list[g.kept[u]]
			work.settled = append(work.settled, clientFile{path: e.Path, newLen: e.Len, ack: u, owed: true})
		}
	}
	if n := s.costs.SumGroupsFailed; n > 0 {
		s.costs.FilesUnchanged -= len(work.settled)
		if lazy {
			res.Unchanged = slices.DeleteFunc(res.Unchanged, func(p string) bool {
				return slices.ContainsFunc(work.settled, func(f clientFile) bool { return f.path == p })
			})
		}
		s.st.fellBack(fmt.Sprintf("sum_groups_failed:%d", n), "msync: sum groups failed", "groups", n, "files", len(work.settled))
	}
	return nil
}

// newClientFile builds the engine for a sync verdict: over the same-path local
// file, or — for a cross-file near-match — one candidate engine per alternate
// local basis, of which the first map round picks the best (see respond /
// core.PickBasis).
func (s *session) newClientFile(path string, newLen int, alts []string) (clientFile, error) {
	cf := clientFile{path: path, newLen: newLen}
	s.costs.FilesSynced++
	if len(alts) == 0 {
		old, err := s.src.Load(path)
		if err != nil {
			return cf, err
		}
		if s.cfg.MapMode == core.MapCDC {
			s.costs.FilesCDC++
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
// files follow stream 0's engines.
func (s *session) receive(res *Result, work *clientWork) error {
	res.PerFile = make(map[string]int64, len(work.files))
	counts := work.counts
	if counts == nil {
		counts = []int{len(work.files)}
	}
	f, links := s.newFramer(len(counts), work.counts != nil, nil, 0)
	streams := make([]*clientStream, len(counts))
	off := 0
	for k, c := range counts {
		streams[k] = &clientStream{streamLink: &links[k], files: work.files[off : off+c], nEng: c}
		off += c
	}
	streams[0].files = append(streams[0].files[:counts[0]:counts[0]], work.settled...)
	return s.consumeStreams(streams, f, res)
}

// treeState carries a client's merkle tree cache across sessions, so a
// repeat sync rebases the built tree from the manifest diff (O(changed ·
// depth) hashing) instead of rebuilding it.
type treeState struct {
	mu    sync.Mutex
	cache *merkle.TreeCache
}

// acquire returns the tree cache for the given manifest state, reusing or
// rebasing the previous sessions' trees when possible. A nil receiver (the
// push path, which has no cross-session home) builds a fresh cache.
func (ts *treeState) acquire(entries []merkle.Entry, fp [md4.Size]byte, dir string) *merkle.TreeCache {
	if ts == nil {
		return merkle.NewTreeCacheAt(entries, fp, dir)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	switch {
	case ts.cache != nil && ts.cache.Fingerprint() == fp:
		// Same collection state as last session: reuse as-is.
	case ts.cache != nil:
		ts.cache = ts.cache.Rebase(entries, fp)
	default:
		ts.cache = merkle.NewTreeCacheAt(entries, fp, dir)
	}
	return ts.cache
}

// treeDir returns the directory where merkle trees may persist for src: the
// signature cache's disk directory, when there is one. "" disables
// persistence (trees then live only as long as the Client).
func treeDir(src Source) string {
	if cb, ok := src.(cacheBacked); ok {
		if c := cb.Cache(); c != nil {
			return c.Dir()
		}
	}
	return ""
}

// treeResult is what tree-mode change detection hands back to consume.
type treeResult struct {
	verdictPaths []string // paths the server will answer with verdicts, in order
	unchanged    []string // local paths the server has with the same content
	deleted      []string // local paths the server no longer has
	// localCopy maps a wanted path to an identical-content local path
	// (cross-file rename match): materialized locally, never transferred.
	localCopy map[string]string
	// altBases maps a wanted path to alternate local basis candidates for
	// its sync engine (cross-file near-match), best-first.
	altBases map[string][]string
}

// maxAltBases bounds how many alternate local bases a client tries per
// wanted file; each candidate costs one engine's worth of memory and one
// first-round scan.
const maxAltBases = 3

// altBasisCandidates proposes alternate local bases for files that exist
// only on the server: orphaned local paths (paths the server no longer has
// — the likely sources of a rename) with matching basenames first, then
// the remaining orphans in path order. Deterministic by construction.
func altBasisCandidates(wanted []merkle.Entry, orphans []string) map[string][]string {
	if len(orphans) == 0 {
		return nil
	}
	sorted := append([]string(nil), orphans...)
	sort.Strings(sorted)
	byBase := make(map[string][]string, len(sorted))
	for _, p := range sorted {
		b := path.Base(p)
		byBase[b] = append(byBase[b], p)
	}
	out := make(map[string][]string, len(wanted))
	for _, e := range wanted {
		cands := make([]string, 0, maxAltBases)
		seen := make(map[string]bool, maxAltBases)
		for _, p := range byBase[path.Base(e.Path)] {
			if len(cands) == maxAltBases {
				break
			}
			cands = append(cands, p)
			seen[p] = true
		}
		for _, p := range sorted {
			if len(cands) == maxAltBases {
				break
			}
			if !seen[p] {
				cands = append(cands, p)
			}
		}
		out[e.Path] = cands
	}
	return out
}

// treeDetect runs merkle reconciliation against the server and asks for the
// differing files. The capability mask this side's hello requested
// (treeCapSpec/treeCapCross) decides what may come back: the server's
// TREE_ACK — sent only when it grants something — arrives before its first
// TREE reply. With no capabilities requested the exchange is byte-identical
// to the legacy descent.
func (s *session) treeDetect(manifest []ManifestEntry, trees *treeState) (*treeResult, error) {
	costs, caps := s.costs, s.ext.treeCaps
	tc := trees.acquire(manifest, ManifestDigest(manifest), treeDir(s.src))
	ini := merkle.NewInitiator(tc.Tree(merkle.DepthFor(len(manifest))))
	var granted byte
	for round := 1; !ini.Done(); round++ {
		s.st.begin(obs.PhaseTree, round)
		if err := s.send(wire.FrameTree, ini.Next(), stats.PhaseControl); err != nil {
			return nil, err
		}
		if err := s.flush(); err != nil {
			return nil, err
		}
		// The server grants extensions with a TREE_ACK before its first TREE
		// reply (same flush: no extra roundtrip).
		ack, payload, err := s.readGranted(wire.FrameTreeAck, wire.FrameTree, round == 1 && caps != 0)
		if err != nil {
			return nil, err
		}
		if ack != nil {
			g, err := wire.NewParser(ack).Uvarint()
			if err != nil {
				return nil, err
			}
			granted = byte(g) & caps
			ini.Speculative = granted&treeCapSpec != 0
		}
		s.cost(stats.S2C, stats.PhaseControl, len(payload))
		s.answered()
		costs.TreeRounds++
		if err := ini.Absorb(payload); err != nil {
			return nil, err
		}
	}
	diff := ini.Diff()
	s.st.begin(obs.PhaseHandshake, 0)

	tr := &treeResult{deleted: diff.OnlyLocal}
	differs := make(map[string]bool, len(diff.OnlyLocal)+len(diff.Changed))
	for _, p := range diff.OnlyLocal {
		differs[p] = true
	}
	for _, e := range diff.Changed {
		differs[e.Path] = true
	}
	for _, e := range manifest {
		if !differs[e.Path] {
			tr.unchanged = append(tr.unchanged, e.Path)
		}
	}
	costs.FilesUnchanged += len(tr.unchanged)

	wantsChanged, wantsRemote := diff.Changed, diff.OnlyRemote
	if granted&treeCapCross != 0 {
		// Cross-file matching: wanted content that already exists locally
		// under some other path (same length and fingerprint) is a rename
		// — drop it from the WANT and copy locally. The rest of the
		// server-only files get alternate-basis hints.
		tr.localCopy = make(map[string]string)
		type ckey struct {
			len int
			sum [md4.Size]byte
		}
		byContent := make(map[ckey]string, len(manifest))
		for i := len(manifest) - 1; i >= 0; i-- {
			// Reverse iteration so the lowest path wins for duplicates.
			e := manifest[i]
			byContent[ckey{e.Len, e.Sum}] = e.Path
		}
		filter := func(es []merkle.Entry) []merkle.Entry {
			out := make([]merkle.Entry, 0, len(es))
			for _, e := range es {
				if p, ok := byContent[ckey{e.Len, e.Sum}]; ok {
					tr.localCopy[e.Path] = p
					continue
				}
				out = append(out, e)
			}
			return out
		}
		wantsChanged = filter(wantsChanged)
		wantsRemote = filter(wantsRemote)
		tr.altBases = altBasisCandidates(wantsRemote, diff.OnlyLocal)
	}

	type wantEntry struct {
		path string
		have byte
	}
	wants := make([]wantEntry, 0, len(wantsChanged)+len(wantsRemote))
	for _, e := range wantsChanged {
		wants = append(wants, wantEntry{e.Path, wantHave})
	}
	for _, e := range wantsRemote {
		h := wantAbsent
		if _, ok := tr.altBases[e.Path]; ok {
			h = wantAltBasis
		}
		wants = append(wants, wantEntry{e.Path, h})
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].path < wants[j].path })

	wb := wire.NewBuffer(64)
	wb.Uvarint(uint64(len(wants)))
	for _, w := range wants {
		wb.String(w.path)
		wb.Byte(w.have)
		tr.verdictPaths = append(tr.verdictPaths, w.path)
	}
	if err := s.send(wire.FrameWant, wb.Build(), stats.PhaseControl); err != nil {
		return nil, err
	}
	return tr, nil
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

// VerifyAgainst checks that every file in result matches the expected
// content; the convergence check of tests and experiments.
func VerifyAgainst(result, want map[string][]byte) error {
	if len(result) != len(want) {
		return fmt.Errorf("collection: file count %d, want %d", len(result), len(want))
	}
	for path, data := range want {
		got, ok := result[path]
		if !ok {
			return fmt.Errorf("collection: missing %q", path)
		}
		if md4.Sum(got) != md4.Sum(data) {
			return fmt.Errorf("collection: content mismatch for %q", path)
		}
	}
	return nil
}
