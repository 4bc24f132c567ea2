package collection

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path"
	"sort"
	"sync"
	"time"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/md4"
	"msync/internal/merkle"
	"msync/internal/obs"
	"msync/internal/stats"
	"msync/internal/transport"
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
	// construction. Servers without a store ignore the extension; the
	// session is unchanged beyond the few extension bytes. The server's
	// current version is reported back in Result.Version.
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
	// the session runs the legacy lockstep protocol unchanged.
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
// becomes the engine.
type clientFile struct {
	path   string
	engine *core.ClientFile
	tryout []*core.ClientFile
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
func (c *Client) SyncContext(ctx context.Context, conn io.ReadWriter) (*Result, error) {
	sess := transport.NewSession(ctx, conn, c.RoundTimeout)
	defer sess.Release()
	costs := &stats.Costs{}
	fr := wire.GetFrameReader(sess)
	defer wire.PutFrameReader(fr)
	fw := wire.GetFrameWriter(sess)
	defer wire.PutFrameWriter(fw)
	acct := beginAccounting(c.src)
	defer acct.finish(costs)
	st := newSessTrace(c.Tracer, c.Logger, "client")

	res, err := func() (*Result, error) {
		// HELLO.
		hb := wire.NewBuffer(8)
		hb.Uvarint(protocolVersion)
		hb.Byte(rolePull)
		if c.TreeManifest {
			hb.Byte(modeTree)
		} else {
			hb.Byte(modeManifest)
		}
		var treeCaps byte
		if c.TreeManifest {
			if c.SpeculativeDescent {
				treeCaps |= treeCapSpec
			}
			if c.CrossFileMatch {
				treeCaps |= treeCapCross
			}
		}
		nExt := 0
		if c.AnnounceVersion {
			nExt++
		}
		if c.MuxStreams > 0 {
			nExt++
		}
		if treeCaps != 0 {
			nExt++
		}
		if c.MapMode != core.MapHalving {
			nExt++
		}
		if nExt > 0 {
			hb.Uvarint(uint64(nExt))
			if c.AnnounceVersion {
				ext := wire.NewBuffer(8)
				ext.Uvarint(c.BaseVersion)
				hb.Uvarint(helloExtVersion)
				hb.Bytes(ext.Build())
			}
			if c.MuxStreams > 0 {
				ext := wire.NewBuffer(8)
				ext.Uvarint(uint64(c.MuxStreams))
				hb.Uvarint(helloExtMux)
				hb.Bytes(ext.Build())
			}
			if treeCaps != 0 {
				ext := wire.NewBuffer(8)
				ext.Uvarint(uint64(treeCaps))
				hb.Uvarint(helloExtTree)
				hb.Bytes(ext.Build())
			}
			if c.MapMode != core.MapHalving {
				ext := wire.NewBuffer(8)
				ext.Uvarint(uint64(c.MapMode))
				hb.Uvarint(helloExtMapMode)
				hb.Bytes(ext.Build())
			}
		}
		if err := fw.WriteFrame(wire.FrameHello, hb.Build()); err != nil {
			return nil, asHandshake(err)
		}
		st.cost(costs, stats.C2S, stats.PhaseControl, hb.Len())
		return consume(ctx, fr, fw, costs, c.src, c.LazyResult, c.TreeManifest, c.AnnounceVersion, c.Workers, c.MuxStreams, treeCaps, &c.trees, st)
	}()
	st.end(costs, err, fr, fw, sess.Stats())
	return res, err
}

// consume runs the receiving role of a session (after any handshake
// header): announce local state, answer map-construction rounds, apply
// deltas. It is shared by the pulling client and by a server accepting a
// push. In the returned Costs, C2S is traffic from the data receiver to the
// data holder. Failures up to and including the verdict exchange are tagged
// with ErrHandshake (retry-safe); ctx is checked at every round boundary.
// workers is the receiver's own parallelism budget — never the remote's: the
// protocol config arrives over the wire, but Workers is deliberately not
// serialized, so each side applies its local setting.
//
// With lazy set (sources that can re-read their own files), unchanged
// content is never materialized: the result lists unchanged and deleted
// paths by name and Files holds only what the session wrote.
//
// announced reports whether this side's hello carried the version
// extension: only then are journal verdicts and the trailing version in the
// verdict frame expected. muxWidth is the requested stream width (0: none);
// only when positive is a MUX_ACK before the verdicts accepted, switching the
// per-file phases to the stream-multiplexed consumer.
//
// treeCaps is the tree-extension capability mask this side's hello asked
// for (0: none — legacy bytes throughout) and trees the cross-session tree
// cache; both only matter under treeManifest.
func consume(ctx context.Context, fr *wire.FrameReader, fw *wire.FrameWriter, costs *stats.Costs, src Source, lazy, treeManifest, announced bool, workers, muxWidth int, treeCaps byte, trees *treeState, st *sessTrace) (*Result, error) {
	sbuf := wire.GetBuffer(1024) // session scratch for every frame we assemble
	defer wire.PutBuffer(sbuf)

	manifest, err := src.Manifest()
	if err != nil {
		return nil, asHandshake(err)
	}

	// Change detection: determine the paths under discussion (in verdict
	// order) and the initial contents of the result set.
	res := &Result{Costs: costs}
	out := make(map[string][]byte)
	res.Files = out
	var verdictPaths []string
	var tr *treeResult
	if treeManifest {
		tr, err = treeDetect(fr, fw, costs, manifest, treeCaps, trees, treeDir(src), st)
		if err != nil {
			return nil, asHandshake(err)
		}
		verdictPaths = tr.verdictPaths
		res.Deleted = tr.deleted
		handled := make(map[string]bool, len(verdictPaths)+len(tr.localCopy))
		for _, p := range verdictPaths {
			handled[p] = true
		}
		for p := range tr.localCopy {
			handled[p] = true
		}
		for _, p := range tr.kept {
			if handled[p] {
				continue // changed: decided by its verdict or local copy below
			}
			if lazy {
				res.Unchanged = append(res.Unchanged, p)
				continue
			}
			data, err := src.Load(p)
			if err != nil {
				return nil, asHandshake(err)
			}
			out[p] = data
		}
		// Cross-file renames: wanted content that already exists locally
		// under another path is copied, not transferred — zero wire bytes.
		if len(tr.localCopy) > 0 {
			paths := make([]string, 0, len(tr.localCopy))
			for p := range tr.localCopy {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			for _, p := range paths {
				data, err := src.Load(tr.localCopy[p])
				if err != nil {
					return nil, asHandshake(err)
				}
				out[p] = data
				costs.FilesRenamed++
				costs.RenameBytesSaved += int64(len(data))
			}
		}
	} else {
		sbuf.Reset()
		encodeManifestInto(sbuf, manifest)
		if err := fw.WriteFrame(wire.FrameManifest, sbuf.Build()); err != nil {
			return nil, asHandshake(err)
		}
		st.cost(costs, stats.C2S, stats.PhaseControl, sbuf.Len())
		for _, e := range manifest {
			verdictPaths = append(verdictPaths, e.Path)
		}
	}
	if err := fw.Flush(); err != nil {
		return nil, asHandshake(err)
	}

	// Verdicts, optionally preceded by a MUX_ACK when we requested
	// multiplexing and the server granted it.
	var muxRaw []byte
	ft, vraw, err := fr.ReadFrame()
	if err != nil {
		return nil, asHandshake(err)
	}
	if ft == wire.FrameMuxAck && muxWidth > 0 {
		muxRaw = vraw
		st.cost(costs, stats.S2C, stats.PhaseControl, len(muxRaw))
		vraw, err = fr.ExpectFrame(wire.FrameVerdicts)
		if err != nil {
			return nil, asHandshake(err)
		}
	} else if ft != wire.FrameVerdicts {
		// Mirror ExpectFrame's special-casing so error and BUSY answers
		// surface identically to the legacy path.
		switch ft {
		case wire.FrameError:
			return nil, asHandshake(fmt.Errorf("wire: remote error: %s", vraw))
		case wire.FrameBusy:
			return nil, asHandshake(wire.DecodeBusy(vraw))
		default:
			return nil, asHandshake(fmt.Errorf("wire: expected frame %s, got %s", wire.FrameName(wire.FrameVerdicts), wire.FrameName(ft)))
		}
	}
	costs.Roundtrips++
	vp := wire.NewParser(vraw)
	cfgRaw, err := vp.Bytes()
	if err != nil {
		return nil, err
	}
	cfg, err := decodeConfig(cfgRaw)
	if err != nil {
		return nil, err
	}
	cfg.Workers = workers
	st.setMode(cfg.MapMode)
	nv, err := vp.Uvarint()
	if err != nil || int(nv) != len(verdictPaths) {
		return nil, fmt.Errorf("collection: verdict count mismatch")
	}

	var engines []clientFile
	var jfiles []journalFile // verdictJournal entries, in verdict order
	var jfailed []int        // journal ordinals whose delta did not apply
	jbytes := make(map[string]int64)
	fullBytes := 0
	deltaBytes := 0
	for _, path := range verdictPaths {
		verdict, err := vp.Byte()
		if err != nil {
			return nil, err
		}
		switch verdict {
		case verdictUnchanged:
			if lazy {
				res.Unchanged = append(res.Unchanged, path)
			} else {
				data, err := src.Load(path)
				if err != nil {
					return nil, err
				}
				out[path] = data
			}
			costs.FilesUnchanged++
		case verdictDelete:
			delete(out, path)
			res.Deleted = append(res.Deleted, path)
		case verdictFull:
			comp, err := vp.Bytes()
			if err != nil {
				return nil, err
			}
			fullBytes += len(comp)
			data, err := delta.Decompress(comp)
			if err != nil {
				return nil, fmt.Errorf("collection: full file %q: %w", path, err)
			}
			out[path] = data
			costs.FilesFull++
		case verdictSync:
			newLen, err := vp.Uvarint()
			if err != nil {
				return nil, err
			}
			var alts []string
			if tr != nil {
				alts = tr.altBases[path]
			}
			if len(alts) > 0 {
				// Cross-file near-match: build one candidate engine per
				// alternate local basis; the first map round picks the
				// best (see respond / core.PickBasis).
				cf := clientFile{path: path}
				for _, ap := range alts {
					old, err := src.Load(ap)
					if err != nil {
						continue // basis vanished: try the rest
					}
					eng, err := core.NewClientFile(old, int(newLen), &cfg)
					if err != nil {
						return nil, err
					}
					cf.tryout = append(cf.tryout, eng)
				}
				if len(cf.tryout) == 0 {
					eng, err := core.NewClientFile(nil, int(newLen), &cfg)
					if err != nil {
						return nil, err
					}
					cf.tryout = append(cf.tryout, eng)
				}
				cf.engine = cf.tryout[0]
				engines = append(engines, cf)
				costs.FilesSynced++
				costs.FilesRebased++
				continue
			}
			old, err := src.Load(path)
			if err != nil {
				return nil, err
			}
			eng, err := core.NewClientFile(old, int(newLen), &cfg)
			if err != nil {
				return nil, err
			}
			engines = append(engines, clientFile{path: path, engine: eng})
			costs.FilesSynced++
			if cfg.MapMode == core.MapCDC {
				costs.FilesCDC++
			}
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
			var sum [md4.Size]byte
			copy(sum[:], sumRaw)
			deltaBytes += len(payload)
			jbytes[path] = int64(len(payload))
			// Apply the precomputed delta against the local copy; any
			// failure (missing file, corrupt payload, content drift) lands
			// on the ack list for a whole-file fallback, exactly like a
			// failed engine verification.
			applied := false
			if old, err := src.Load(path); err == nil {
				if data, err := delta.DecodeLen(old, payload, int(newLen)); err == nil && md4.Sum(data) == sum {
					out[path] = data
					applied = true
				}
			}
			if !applied {
				jfailed = append(jfailed, len(jfiles))
			}
			jfiles = append(jfiles, journalFile{path, int(newLen), sum})
			costs.FilesJournal++
		default:
			return nil, fmt.Errorf("collection: unknown verdict %d", verdict)
		}
	}
	if len(engines) > 0 && len(jfiles) > 0 {
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
		comp, err := vp.Bytes()
		if err != nil {
			return nil, err
		}
		fullBytes += len(comp)
		data, err := delta.Decompress(comp)
		if err != nil {
			return nil, fmt.Errorf("collection: new file %q: %w", path, err)
		}
		out[path] = data
		costs.FilesFull++
	}
	if announced && !treeManifest && vp.Remaining() > 0 {
		// Versioned servers append their current version for announcing
		// clients; its absence just means the server has no store.
		if v, err := vp.Uvarint(); err == nil {
			res.Version = v
		}
	}
	st.verdictCost(costs, len(vraw), fullBytes, deltaBytes)

	perEngine := make([]int64, len(engines))

	var muxCounts []int
	if muxRaw != nil {
		if len(engines) == 0 || len(jfiles) > 0 {
			// The server only grants multiplexing to sessions running sync
			// engines; anything else is a protocol violation.
			return nil, fmt.Errorf("collection: unexpected mux ack")
		}
		muxCounts, err = wire.ParseMuxAck(muxRaw, len(engines))
		if err != nil {
			return nil, err
		}
	}
	if muxCounts != nil {
		// Stream-multiplexed per-file phases replace the lockstep loop.
		if err := consumeStreams(ctx, fr, fw, costs, engines, muxCounts, workers, perEngine, out, st); err != nil {
			return nil, err
		}
	} else {

		// Map-construction rounds: respond to whatever the server sends until
		// the delta frame arrives.
		var deltaPayload []byte
		rounds := 0
		for deltaPayload == nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("collection: session cancelled: %w", err)
			}
			ft, payload, err := fr.ReadFrame()
			if err != nil {
				return nil, err
			}
			switch ft {
			case wire.FrameRoundHashes, wire.FrameConfirm:
				if ft == wire.FrameRoundHashes {
					rounds++
					st.begin(obs.PhaseRound, rounds)
				} else {
					st.begin(obs.PhaseVerify, rounds)
				}
				st.cost(costs, stats.S2C, stats.PhaseMap, len(payload))
				reply, err := respond(workers, engines, ft, payload, perEngine, sbuf)
				if err != nil {
					return nil, err
				}
				if err := fw.WriteFrame(wire.FrameRoundReply, reply); err != nil {
					return nil, err
				}
				if err := fw.Flush(); err != nil {
					return nil, err
				}
				st.cost(costs, stats.C2S, stats.PhaseMap, len(reply))
				costs.Roundtrips++
			case wire.FrameDelta:
				st.begin(obs.PhaseDelta, 0)
				st.cost(costs, stats.S2C, stats.PhaseDelta, len(payload))
				deltaPayload = payload
			case wire.FrameError:
				return nil, fmt.Errorf("collection: server error: %s", payload)
			default:
				return nil, fmt.Errorf("collection: unexpected frame %s", wire.FrameName(ft))
			}
		}

		// Apply deltas; collect whole-file-check failures.
		dp := wire.NewParser(deltaPayload)
		nd, err := dp.Uvarint()
		if err != nil || int(nd) != len(engines) {
			return nil, fmt.Errorf("collection: delta count mismatch")
		}
		deltaSections := make([][]byte, len(engines))
		for i := range engines {
			section, err := dp.Bytes()
			if err != nil {
				return nil, err
			}
			deltaSections[i] = section
			perEngine[i] += int64(len(section))
		}
		results := make([][]byte, len(engines))
		verifyFailed := make([]bool, len(engines))
		err = parallelFiles(workers, len(engines), func(i int) error {
			data, err := engines[i].engine.ApplyDelta(deltaSections[i])
			switch {
			case err == nil:
				results[i] = data
			case errors.Is(err, core.ErrVerifyFailed):
				verifyFailed[i] = true
			default:
				return fmt.Errorf("collection: file %q: %w", engines[i].path, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var failed []int
		for i := range engines {
			if verifyFailed[i] {
				failed = append(failed, i)
			} else {
				out[engines[i].path] = results[i]
			}
		}
		if len(jfiles) > 0 {
			// Journal session: ack indexes are ordinals into the journal-file
			// list (there are no engines to index).
			failed = jfailed
		}
		sbuf.Reset()
		sbuf.Uvarint(uint64(len(failed)))
		for _, i := range failed {
			sbuf.Uvarint(uint64(i))
		}
		if err := fw.WriteFrame(wire.FrameAck, sbuf.Build()); err != nil {
			return nil, err
		}
		if err := fw.Flush(); err != nil {
			return nil, err
		}
		st.cost(costs, stats.C2S, stats.PhaseControl, sbuf.Len())
		costs.Roundtrips++ // delta → ack

		if len(failed) > 0 {
			st.begin(obs.PhaseFull, 0)
			fraw, err := fr.ExpectFrame(wire.FrameFull)
			if err != nil {
				return nil, err
			}
			st.cost(costs, stats.S2C, stats.PhaseFull, len(fraw))
			costs.Roundtrips++
			fp := wire.NewParser(fraw)
			nf, err := fp.Uvarint()
			if err != nil || int(nf) != len(failed) {
				return nil, fmt.Errorf("collection: full-transfer count mismatch")
			}
			nIdx := len(engines)
			if len(jfiles) > 0 {
				nIdx = len(jfiles)
			}
			for k := uint64(0); k < nf; k++ {
				idx, err := fp.Uvarint()
				if err != nil || int(idx) >= nIdx {
					return nil, fmt.Errorf("collection: bad full index")
				}
				comp, err := fp.Bytes()
				if err != nil {
					return nil, err
				}
				data, err := delta.Decompress(comp)
				if err != nil {
					return nil, err
				}
				if len(jfiles) > 0 {
					out[jfiles[idx].path] = data
					jbytes[jfiles[idx].path] += int64(len(comp))
				} else {
					out[engines[idx].path] = data
					perEngine[idx] += int64(len(comp))
				}
				costs.FilesFull++
			}
		}
	} // end legacy lockstep path
	perFile := make(map[string]int64, len(engines)+len(jfiles))
	for i := range engines {
		costs.CDCChunks += engines[i].engine.CDCChunks
		perFile[engines[i].path] = perEngine[i]
	}
	for path, n := range jbytes {
		perFile[path] = n
	}
	res.PerFile = perFile
	return res, nil
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
	kept         []string // local paths the server still has (incl. changed)
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
// differing files. caps is the capability mask this side's hello requested
// (treeCapSpec/treeCapCross); the server's TREE_ACK — sent only when it
// grants something — arrives before its first TREE reply. With caps == 0
// the exchange is byte-identical to the legacy descent.
func treeDetect(fr *wire.FrameReader, fw *wire.FrameWriter, costs *stats.Costs, manifest []ManifestEntry, caps byte, trees *treeState, dir string, st *sessTrace) (*treeResult, error) {
	entries := make([]merkle.Entry, len(manifest))
	for i, e := range manifest {
		entries[i] = merkle.Entry{Path: e.Path, Len: e.Len, Sum: e.Sum}
	}
	tc := trees.acquire(entries, ManifestDigest(manifest), dir)
	ini := merkle.NewInitiator(tc.Tree(merkle.DepthFor(len(entries))))
	var granted byte
	first := true
	round := 0
	for !ini.Done() {
		round++
		st.begin(obs.PhaseTree, round)
		msg := ini.Next()
		if err := fw.WriteFrame(wire.FrameTree, msg); err != nil {
			return nil, err
		}
		if err := fw.Flush(); err != nil {
			return nil, err
		}
		st.cost(costs, stats.C2S, stats.PhaseControl, len(msg))
		var payload []byte
		if first && caps != 0 {
			// The server may grant extensions with a TREE_ACK before its
			// first TREE reply (same flush: no extra roundtrip). Errors
			// mirror ExpectFrame's special cases.
			ft, raw, err := fr.ReadFrame()
			if err != nil {
				return nil, err
			}
			if ft == wire.FrameTreeAck {
				st.cost(costs, stats.S2C, stats.PhaseControl, len(raw))
				g, err := wire.NewParser(raw).Uvarint()
				if err != nil {
					return nil, err
				}
				granted = byte(g) & caps
				ini.Speculative = granted&treeCapSpec != 0
				ft, raw, err = fr.ReadFrame()
				if err != nil {
					return nil, err
				}
			}
			switch ft {
			case wire.FrameTree:
				payload = raw
			case wire.FrameError:
				return nil, fmt.Errorf("wire: remote error: %s", raw)
			case wire.FrameBusy:
				return nil, wire.DecodeBusy(raw)
			default:
				return nil, fmt.Errorf("wire: expected frame %s, got %s", wire.FrameName(wire.FrameTree), wire.FrameName(ft))
			}
		} else {
			var err error
			payload, err = fr.ExpectFrame(wire.FrameTree)
			if err != nil {
				return nil, err
			}
		}
		first = false
		st.cost(costs, stats.S2C, stats.PhaseControl, len(payload))
		costs.Roundtrips++
		costs.TreeRounds++
		if err := ini.Absorb(payload); err != nil {
			return nil, err
		}
	}
	diff := ini.Diff()
	st.begin(obs.PhaseHandshake, 0)

	tr := &treeResult{deleted: diff.OnlyLocal}
	deleted := make(map[string]bool, len(diff.OnlyLocal))
	for _, p := range diff.OnlyLocal {
		deleted[p] = true
	}
	for _, e := range manifest {
		if !deleted[e.Path] {
			tr.kept = append(tr.kept, e.Path)
		}
	}
	costs.FilesUnchanged += len(manifest) - len(deleted) - len(diff.Changed)

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
	if err := fw.WriteFrame(wire.FrameWant, wb.Build()); err != nil {
		return nil, err
	}
	st.cost(costs, stats.C2S, stats.PhaseControl, wb.Len())
	return tr, nil
}

// respond handles one round-hashes or confirm frame and builds the reply
// into rb (the session's pooled scratch buffer — the returned bytes are only
// valid until rb's next reset). Engine work fans out across workers; replies
// are gathered into index-addressed slots and written in job order, so the
// reply frame is byte-identical for every worker count.
func respond(workers int, engines []clientFile, frameType byte, payload []byte, perEngine []int64, rb *wire.Buffer) ([]byte, error) {
	pr := wire.NewParser(payload)
	n, err := pr.Uvarint()
	if err != nil {
		return nil, err
	}
	type job struct {
		idx     uint64
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
		jobs = append(jobs, job{idx, section})
		perEngine[idx] += int64(len(section))
	}
	replies := make([][]byte, len(jobs)) // nil = no reply for this file
	err = parallelFiles(workers, len(jobs), func(k int) error {
		cf := &engines[jobs[k].idx]
		eng := cf.engine
		if frameType == wire.FrameRoundHashes {
			if len(cf.tryout) > 0 {
				// Alternate-basis candidates race on the first hash round;
				// the best-matching one becomes the engine for good.
				eng, err := core.PickBasis(cf.tryout, jobs[k].section)
				if err != nil {
					return fmt.Errorf("collection: file %q: %w", cf.path, err)
				}
				cf.engine, cf.tryout = eng, nil
				replies[k] = eng.EmitReply()
				return nil
			}
			if err := eng.AbsorbHashes(jobs[k].section); err != nil {
				return fmt.Errorf("collection: file %q: %w", cf.path, err)
			}
			replies[k] = eng.EmitReply()
			return nil
		}
		more, err := eng.AbsorbConfirm(jobs[k].section)
		if err != nil {
			return fmt.Errorf("collection: file %q: %w", engines[jobs[k].idx].path, err)
		}
		if more {
			replies[k] = eng.EmitBatch()
		}
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
	rb.Reset()
	rb.Uvarint(uint64(count))
	for k, r := range replies {
		if r != nil {
			rb.Uvarint(jobs[k].idx)
			rb.Bytes(r)
			perEngine[jobs[k].idx] += int64(len(r))
		}
	}
	return rb.Build(), nil
}

// VerifyAgainst checks that every file in result matches the expected
// content; a helper for tests and the CLI's --check mode.
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
