package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"msync"
	"msync/internal/bitio"
	"msync/internal/cdc"
	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/dirio"
	"msync/internal/huffman"
	"msync/internal/md4"
	"msync/internal/merkle"
	"msync/internal/pubsig"
	"msync/internal/rolling"
	"msync/internal/sigcache"
	"msync/internal/store"
	"msync/internal/wire"
)

// The layer replay of a traced run: the workload's own trees and changed
// file pairs go through each internal layer's exported functions, one span
// per call. A replay makes one pass over a fixed subset of the inputs, so
// its numbers repeat; the subset is capped, so a traced run stays short.

// replayPairBytes caps the changed-file content a replay loads (new-version
// bytes, in path order). It admits all three files of the big_* workloads.
const replayPairBytes = 8 << 20

// filePair is one changed file: the client's version and the server's.
type filePair struct {
	path     string
	old, new []byte
}

// frameClass is the workload's frame-size histogram as the tracer gives it:
// count frames of about size bytes each (one class per protocol phase).
type frameClass struct {
	size, count int
}

type replay struct {
	wl      *workload
	w       *world
	cfg     core.Config
	rec     *recorder
	pairs   []filePair
	fresh   [][]byte // server files the client has no version of
	frames  []frameClass
	tmp     string // scratch for the replay's own files
	metrics map[string]float64
}

// newReplay loads the replay's inputs from the workload's trees.
func newReplay(wl *workload, w *world, rec *recorder, frames []frameClass, metrics map[string]float64) (*replay, error) {
	rp := &replay{wl: wl, w: w, cfg: core.DefaultConfig(), rec: rec, frames: frames, tmp: w.sub("replay"), metrics: metrics}
	rp.cfg.MapMode = wl.mapMode
	if err := os.MkdirAll(rp.tmp, 0o755); err != nil {
		return nil, err
	}
	var budget int64 = replayPairBytes
	for _, path := range w.serverPaths() {
		have, ok := w.client[path]
		if ok && have == w.server[path] {
			continue
		}
		if budget -= int64(w.server[path].N); budget < 0 {
			break
		}
		cur, err := w.loadServer(path)
		if err != nil {
			return nil, err
		}
		if !ok {
			rp.fresh = append(rp.fresh, cur)
			continue
		}
		old, err := os.ReadFile(filepath.Join(w.clientRoot, filepath.FromSlash(path)))
		if err != nil {
			return nil, err
		}
		rp.pairs = append(rp.pairs, filePair{path, old, cur})
	}
	if len(rp.pairs) == 0 {
		return nil, errors.New("replay: the workload has no changed file pair")
	}
	return rp, nil
}

func mb(n int64) float64 { return float64(n) / (1 << 20) }

// perSec divides, reporting 0 for an interval too short to have been timed.
func perSec(amount float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return amount / d.Seconds()
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed runs fn inside a span and returns how long it took.
func (rp *replay) timed(name string, parent int, fn func()) time.Duration {
	id := rp.rec.begin(name, parent, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	rp.rec.end(id)
	return d
}

// run replays every layer the workload exercises.
func (rp *replay) run() error {
	steps := []func() error{
		rp.dirio, rp.md4, rp.rolling, rp.core, rp.scanSpeedup, rp.cdc, rp.delta,
		rp.huffman, rp.wire, rp.merkle, rp.manifest, rp.pipe,
	}
	if rp.wl.warmCaches {
		steps = append(steps, rp.sigcache)
	}
	if rp.wl.journal {
		steps = append(steps, rp.store)
	}
	if rp.wl.name == "src_cold" {
		steps = append(steps, rp.pubsig)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return os.RemoveAll(rp.tmp)
}

func (rp *replay) dirio() error {
	m, root := rp.metrics, rp.rec.begin("replay.dirio", 0, 0)
	defer rp.rec.end(root)
	var tree *dirio.Tree
	var err error
	d := rp.timed("dirio.open_tree", root, func() { tree, _, err = dirio.OpenTree(rp.w.serverRoot) })
	if err != nil {
		return err
	}
	files := tree.Files()
	m["dirio.open_tree_files_per_s"] = perSec(float64(len(files)), d)

	var loaded, hashed int64
	var loadDur, hashDur time.Duration
	for _, fi := range files {
		if loaded >= replayPairBytes {
			break
		}
		loadDur += rp.timed("dirio.load", root, func() {
			var data []byte
			if data, err = tree.Load(fi.Path); err == nil {
				loaded += int64(len(data))
			}
		})
		if err != nil {
			return err
		}
		hashDur += rp.timed("dirio.hash_file", root, func() {
			var n int64
			var sum [md4.Size]byte
			if sum, n, err = tree.HashFile(fi.Path); err == nil && sum != rp.w.server[fi.Path].Sum {
				err = fmt.Errorf("replay: dirio.HashFile(%q) disagrees with the oracle", fi.Path)
			}
			hashed += n
		})
		if err != nil {
			return err
		}
	}
	m["dirio.load_mb_per_s"] = perSec(mb(loaded), loadDur)
	m["dirio.hash_file_mb_per_s"] = perSec(mb(hashed), hashDur)

	changed := make(map[string][]byte, len(rp.pairs))
	var applied int64
	for _, p := range rp.pairs {
		changed[p.path] = p.new
		applied += int64(len(p.new))
	}
	d = rp.timed("dirio.apply_changes", root, func() { err = dirio.ApplyChanges(filepath.Join(rp.tmp, "apply"), changed, nil) })
	m["dirio.apply_mb_per_s"] = perSec(mb(applied), d)
	return err
}

// contents are the new versions of the changed files followed by the files
// new on the server: what the hashing layers are fed.
func (rp *replay) contents() [][]byte {
	out := make([][]byte, 0, len(rp.pairs)+len(rp.fresh))
	for _, p := range rp.pairs {
		out = append(out, p.new)
	}
	return append(out, rp.fresh...)
}

func (rp *replay) md4() error {
	root := rp.rec.begin("replay.md4", 0, 0)
	defer rp.rec.end(root)
	var n int64
	var d time.Duration
	for _, data := range rp.contents() {
		d += rp.timed("md4.sum", root, func() { sink16 = md4.Sum(data) })
		n += int64(len(data))
	}
	rp.metrics["md4.sum_mb_per_s"] = perSec(mb(n), d)
	return nil
}

// Results the compiler must not discard.
var (
	sink16 [md4.Size]byte
	sink64 uint64
)

func (rp *replay) rolling() error {
	root := rp.rec.begin("replay.rolling", 0, 0)
	defer rp.rec.end(root)
	// A roll costs the same at every window; the smallest scheduled block
	// keeps the tiny workloads' 200-byte files in.
	window := rp.cfg.MinBlockSize
	poly := rolling.Default()
	var rolled, hashed int64
	var polyDur, adlerDur, hashDur time.Duration
	for _, p := range rp.pairs {
		old := p.old
		if len(old) <= window {
			continue
		}
		polyDur += rp.timed("rolling.poly_roll", root, func() {
			r := poly.NewRoller(window)
			r.Init(old)
			for i := window; i < len(old); i++ {
				r.Roll(old[i-window], old[i])
			}
			sink64 += r.Sum()
		})
		adlerDur += rp.timed("rolling.adler_roll", root, func() {
			a := rolling.NewAdler(window)
			a.Init(old)
			for i := window; i < len(old); i++ {
				a.Roll(old[i-window], old[i])
			}
			sink64 += uint64(a.Sum())
		})
		rolled += int64(len(old) - window)
		hashDur += rp.timed("rolling.block_hash", root, func() {
			for b := rp.cfg.MaxBlockSize; b >= rp.cfg.MinBlockSize; b /= 2 {
				for off := 0; off+b <= len(old); off += b {
					sink64 += poly.Hash(old[off : off+b])
					hashed += int64(b)
				}
			}
		})
	}
	rp.metrics["rolling.poly_roll_mb_per_s"] = perSec(mb(rolled), polyDur)
	rp.metrics["rolling.adler_roll_mb_per_s"] = perSec(mb(rolled), adlerDur)
	rp.metrics["rolling.block_hash_mb_per_s"] = perSec(mb(hashed), hashDur)
	return nil
}

// mapRounds drives one file's map construction to its end, the way
// core.SyncLocal does, calling step around each engine call so the caller
// can time it. It returns the rounds run and the map-phase bytes exchanged.
func mapRounds(srv *core.ServerFile, cli *core.ClientFile, step func(name string, fn func())) (rounds int, mapBytes int64, err error) {
	for srv.Active() && err == nil {
		if !cli.Active() {
			return rounds, mapBytes, errors.New("replay: engine desync: server active, client done")
		}
		var hashes []byte
		step("core.emit_hashes", func() { hashes = srv.EmitHashes() })
		step("core.absorb_hashes", func() { err = cli.AbsorbHashes(hashes) })
		if err != nil {
			break
		}
		mapBytes += int64(len(hashes))
		step("core.verify", func() {
			reply := cli.EmitReply()
			mapBytes += int64(len(reply))
			var more bool
			more, err = srv.AbsorbReply(reply)
			for more && err == nil {
				confirm := srv.EmitConfirm()
				if _, err = cli.AbsorbConfirm(confirm); err != nil {
					break
				}
				batch := cli.EmitBatch()
				mapBytes += int64(len(confirm) + len(batch))
				more, err = srv.AbsorbBatch(batch)
			}
		})
		rounds++
	}
	return rounds, mapBytes, err
}

// core re-drives the SyncLocal loop over the changed pairs with a span around
// every engine call. core.file_s and its children are means per file.
func (rp *replay) core() error {
	m, root := rp.metrics, rp.rec.begin("replay.core", 0, 0)
	defer rp.rec.end(root)
	cfg := rp.cfg
	var rounds int
	var mapBytes, deltaBytes, hashesSent, candidates, confirmed int64
	m0 := mallocs()
	for _, p := range rp.pairs {
		var err error
		file := rp.rec.begin("core.file", root, 0)
		step := func(name string, fn func()) { rp.timed(name, file, fn) }
		var srv *core.ServerFile
		var cli *core.ClientFile
		step("core.new_engines", func() {
			if srv, err = core.NewServerFile(p.new, &cfg); err == nil {
				cli, err = core.NewClientFile(p.old, len(p.new), &cfg)
			}
		})
		if err != nil {
			return err
		}
		r, mbytes, err := mapRounds(srv, cli, step)
		if err != nil {
			return err
		}
		var dl, out []byte
		step("core.emit_delta", func() { dl = srv.EmitDelta() })
		step("core.apply_delta", func() { out, err = cli.ApplyDelta(dl) })
		rp.rec.end(file)
		// A failed whole-file check is the protocol's routine fallback to a
		// full transfer, not an error; anything else is.
		if err != nil && !errors.Is(err, core.ErrVerifyFailed) {
			return err
		}
		if err == nil && !bytes.Equal(out, p.new) {
			return fmt.Errorf("replay: core reconstructed %q wrongly", p.path)
		}
		rounds += r
		mapBytes += mbytes
		deltaBytes += int64(len(dl))
		hashesSent += srv.HashesSent
		candidates += srv.CandidatesSeen
		confirmed += srv.MatchesConfirmed
	}
	n := float64(len(rp.pairs))
	m["core.allocs_per_file"] = float64(mallocs()-m0) / n
	for metric, spanName := range map[string]string{
		"core.file_s": "core.file", "core.new_engines_s": "core.new_engines",
		"core.emit_hashes_s": "core.emit_hashes", "core.absorb_hashes_s": "core.absorb_hashes",
		"core.verify_s": "core.verify", "core.emit_delta_s": "core.emit_delta",
		"core.apply_delta_s": "core.apply_delta",
	} {
		secs, _ := rp.rec.total(spanName)
		m[metric] = secs / n
	}
	m["core.rounds_per_file"] = float64(rounds) / n
	m["core.hashes_sent"] = float64(hashesSent)
	m["core.candidates_found"] = float64(candidates)
	m["core.matches_confirmed"] = float64(confirmed)
	if candidates > 0 {
		m["core.harvest_rate"] = float64(confirmed) / float64(candidates)
	}
	m["core.map_bytes"] = float64(mapBytes)
	m["core.delta_bytes"] = float64(deltaBytes)

	var d time.Duration
	for _, p := range rp.pairs {
		var err error
		d += rp.timed("core.precompute_signature", root, func() { _, err = core.PrecomputeSignature(p.new, &cfg) })
		if err != nil {
			return err
		}
	}
	m["core.precompute_signature_s"] = d.Seconds() / n
	return nil
}

// scanSpeedup times the old-file scans (absorb_hashes) of the largest changed
// pair with one worker and with the default, which is the host's parallelism,
// and counts the goroutines the default really put to work on that file.
func (rp *replay) scanSpeedup() error {
	root := rp.rec.begin("replay.scan", 0, 0)
	defer rp.rec.end(root)
	largest := rp.pairs[0]
	for _, p := range rp.pairs[1:] {
		if len(p.old) > len(largest.old) {
			largest = p
		}
	}
	// absorb builds the pair's map at the given Workers, handing every
	// absorb_hashes call to around.
	absorb := func(workers int, around func(fn func())) error {
		cfg := rp.cfg
		cfg.Workers = workers
		srv, err := core.NewServerFile(largest.new, &cfg)
		if err != nil {
			return err
		}
		cli, err := core.NewClientFile(largest.old, len(largest.new), &cfg)
		if err != nil {
			return err
		}
		_, _, err = mapRounds(srv, cli, func(name string, fn func()) {
			if name == "core.absorb_hashes" {
				around(fn)
				return
			}
			fn()
		})
		return err
	}
	// The two take turns three times and the fastest of each counts: a ratio
	// of two single timings on a shared host says little.
	var serial, parallel time.Duration
	for i := 0; i < 3; i++ {
		var s, p time.Duration
		if err := absorb(1, func(fn func()) { s += rp.timed("core.absorb_hashes.workers_1", root, fn) }); err != nil {
			return err
		}
		if err := absorb(0, func(fn func()) { p += rp.timed("core.absorb_hashes.workers_default", root, fn) }); err != nil {
			return err
		}
		if i == 0 || s < serial {
			serial = s
		}
		if i == 0 || p < parallel {
			parallel = p
		}
	}
	if parallel > 0 {
		rp.metrics["core.scan_parallel_speedup"] = serial.Seconds() / parallel.Seconds()
	}

	// How many goroutines the scans really ran on, in a pass of its own that
	// is not timed: what Workers resolves to says nothing about whether this
	// file was sharded.
	workers := 1
	err := absorb(0, func(fn func()) {
		if n := goroutinesDuring(fn); n > workers {
			workers = n
		}
	})
	rp.metrics["pool.effective_workers"] = float64(workers)
	return err
}

// goroutinesDuring runs fn and returns the most goroutines it had working for
// it at once: 1 when fn did everything on the calling goroutine, else the
// goroutines it started while it waited. A sampler spins beside fn, so fn's
// duration means nothing.
func goroutinesDuring(fn func()) int {
	base := runtime.NumGoroutine() + 1 // the sampler
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := base
		for {
			select {
			case <-stop:
				peak <- most
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > most {
				most = n
			}
			runtime.Gosched()
		}
	}()
	fn()
	close(stop)
	if started := <-peak - base; started > 1 {
		return started
	}
	return 1
}

func (rp *replay) cdc() error {
	root := rp.rec.begin("replay.cdc", 0, 0)
	defer rp.rec.end(root)
	var n, chunks int64
	var d time.Duration
	for _, data := range rp.contents() {
		var cuts []int
		var err error
		d += rp.timed("cdc.cuts", root, func() { cuts, err = cdc.CutsE(data, cdc.DefaultParams()) })
		if err != nil {
			return err
		}
		n += int64(len(data))
		chunks += int64(len(cuts))
	}
	rp.metrics["cdc.cuts_mb_per_s"] = perSec(mb(n), d)
	rp.metrics["cdc.chunks_per_mb"] = float64(chunks) / mb(n)
	return nil
}

func (rp *replay) delta() error {
	m, root := rp.metrics, rp.rec.begin("replay.delta", 0, 0)
	defer rp.rec.end(root)
	var in, out int64
	var encDur, decDur time.Duration
	for _, p := range rp.pairs {
		var enc, dec []byte
		var err error
		encDur += rp.timed("delta.encode", root, func() { enc = delta.Encode(p.old, p.new) })
		decDur += rp.timed("delta.decode", root, func() { dec, err = delta.Decode(p.old, enc) })
		if err != nil {
			return err
		}
		if !bytes.Equal(dec, p.new) {
			return fmt.Errorf("replay: delta round trip of %q differs", p.path)
		}
		in += int64(len(p.new))
		out += int64(len(enc))
	}
	m["delta.encode_mb_per_s"] = perSec(mb(in), encDur)
	m["delta.decode_mb_per_s"] = perSec(mb(in), decDur)
	m["delta.out_bytes_per_kb"] = float64(out) / (float64(in) / 1024)

	// Whole-file compression is what a new file costs; a workload without
	// new files compresses its changed ones.
	whole := rp.fresh
	if len(whole) == 0 {
		whole = rp.contents()
	}
	var n int64
	var d time.Duration
	for _, data := range whole {
		d += rp.timed("delta.compress", root, func() { sink64 += uint64(len(delta.Compress(data))) })
		n += int64(len(data))
	}
	m["delta.compress_mb_per_s"] = perSec(mb(n), d)
	return nil
}

// huffman codes the bytes of the changed files with the code built from
// their own histogram: the literal stream delta hands to this layer.
func (rp *replay) huffman() error {
	root := rp.rec.begin("replay.huffman", 0, 0)
	defer rp.rec.end(root)
	freq := make([]int64, 256)
	var syms int64
	for _, p := range rp.pairs {
		for _, b := range p.new {
			freq[b]++
		}
		syms += int64(len(p.new))
	}
	var code *huffman.Code
	var err error
	w := bitio.NewWriter(int(syms))
	encDur := rp.timed("huffman.encode", root, func() {
		if code, err = huffman.Build(freq); err != nil {
			return
		}
		for _, p := range rp.pairs {
			for _, b := range p.new {
				if err = code.Encode(w, int(b)); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	lengths := make([]uint8, 256)
	for s := range lengths {
		lengths[s] = uint8(code.Length(s))
	}
	var mismatch bool
	decDur := rp.timed("huffman.decode", root, func() {
		var dec *huffman.Decoder
		if dec, err = huffman.NewDecoder(lengths); err != nil {
			return
		}
		r := bitio.NewReader(w.Bytes())
		for _, p := range rp.pairs {
			for _, b := range p.new {
				var s int
				if s, err = dec.Decode(r); err != nil {
					return
				}
				mismatch = mismatch || s != int(b)
			}
		}
	})
	if err != nil {
		return err
	}
	if mismatch {
		return errors.New("replay: huffman round trip differs")
	}
	rp.metrics["huffman.encode_msym_per_s"] = perSec(float64(syms)/1e6, encDur)
	rp.metrics["huffman.decode_msym_per_s"] = perSec(float64(syms)/1e6, decDur)
	return nil
}

// The wire replay writes the session's frame classes over and over until it
// has written minReplayFrames frames — a session has a few dozen, too few to
// time — or replayFrameBytes bytes.
const (
	minReplayFrames  = 5000
	replayFrameBytes = 32 << 20
)

func (rp *replay) wire() error {
	m, root := rp.metrics, rp.rec.begin("replay.wire", 0, 0)
	defer rp.rec.end(root)
	largest := 0
	for _, c := range rp.frames {
		if c.size > largest {
			largest = c.size
		}
	}
	if len(rp.frames) == 0 {
		return errors.New("replay: the traced sessions recorded no frames")
	}
	var sizes []int
	for written := 0; len(sizes) < minReplayFrames && written < replayFrameBytes; {
		for _, c := range rp.frames {
			for i := 0; i < c.count; i++ {
				sizes = append(sizes, c.size)
			}
			written += c.count * c.size
		}
	}
	payload := make([]byte, largest)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	frames := float64(len(sizes))
	var stream bytes.Buffer
	streamLen := 0
	for _, n := range sizes {
		streamLen += n + 6
	}
	stream.Grow(streamLen) // so the sink's growth is not what gets timed
	m0 := mallocs()

	var err error
	d := rp.timed("wire.write_frames", root, func() {
		fw := wire.NewFrameWriter(&stream)
		for _, n := range sizes {
			if err = fw.WriteFrame(wire.FrameHello, payload[:n]); err != nil {
				return
			}
		}
		err = fw.Flush()
	})
	if err != nil {
		return err
	}
	m["wire.write_ns_per_frame"] = float64(d.Nanoseconds()) / frames

	d = rp.timed("wire.read_frames", root, func() {
		fr := wire.NewFrameReader(&stream)
		for _, n := range sizes {
			var got []byte
			if _, got, err = fr.ReadFrame(); err != nil {
				return
			}
			if len(got) != n {
				err = fmt.Errorf("replay: wire read a %d-byte frame, wrote %d", len(got), n)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m["wire.read_ns_per_frame"] = float64(d.Nanoseconds()) / frames

	const width = 16
	d = rp.timed("wire.stream_wrap", root, func() {
		buf := wire.NewBuffer(largest + 16)
		for i, n := range sizes {
			buf.Reset()
			wire.AppendStreamFrame(buf, i%width, wire.FrameHello, payload[:n])
			var sf wire.StreamFrame
			if sf, err = wire.ParseStreamFrame(buf.Build(), width); err != nil {
				return
			}
			if sf.ID != i%width || len(sf.Payload) != n {
				err = errors.New("replay: wire stream frame round trip differs")
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m["wire.stream_wrap_ns_per_frame"] = float64(d.Nanoseconds()) / frames
	m["wire.allocs_per_frame"] = float64(mallocs()-m0) / frames
	return nil
}

func merkleEntries(sums map[string]fileSum) []merkle.Entry {
	entries := make([]merkle.Entry, 0, len(sums))
	for p, s := range sums {
		entries = append(entries, merkle.Entry{Path: p, Len: s.N, Sum: s.Sum})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	return entries
}

func (rp *replay) merkle() error {
	m, root := rp.metrics, rp.rec.begin("replay.merkle", 0, 0)
	defer rp.rec.end(root)
	local, remote := merkleEntries(rp.w.client), merkleEntries(rp.w.server)
	depth := merkle.DepthFor(len(local))

	var tree *merkle.Tree
	m["merkle.build_s"] = rp.timed("merkle.build", root, func() { tree = merkle.Build(local, depth) }).Seconds()

	var upserts []merkle.Entry
	var deletes []string
	for _, e := range remote {
		if have, ok := rp.w.client[e.Path]; !ok || have != rp.w.server[e.Path] {
			upserts = append(upserts, e)
		}
	}
	for _, e := range local {
		if _, ok := rp.w.server[e.Path]; !ok {
			deletes = append(deletes, e.Path)
		}
	}
	updated := merkle.Build(local, depth)
	m["merkle.update_s"] = rp.timed("merkle.update", root, func() { updated.Update(upserts, deletes) }).Seconds()
	if updated.Root() != merkle.Build(remote, depth).Root() {
		return errors.New("replay: merkle.Update disagrees with Build on the updated set")
	}

	// Persist a built tree, then time a second cache restoring it.
	dir := filepath.Join(rp.tmp, "mtree")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fp := md4.Sum([]byte(rp.wl.name))
	merkle.NewTreeCacheAt(local, fp, dir).Tree(depth)
	var loaded *merkle.Tree
	m["merkle.cache_load_s"] = rp.timed("merkle.cache_load", root, func() {
		loaded = merkle.NewTreeCacheAt(local, fp, dir).Tree(depth)
	}).Seconds()
	if loaded.Root() != tree.Root() {
		return errors.New("replay: merkle tree cache restored a different tree")
	}

	var rounds, wireBytes int
	var err error
	var diff *merkle.Diff
	m["merkle.reconcile_s"] = rp.timed("merkle.reconcile", root, func() {
		ini, resp := merkle.NewInitiator(tree), merkle.NewResponder(remote)
		for !ini.Done() {
			msg := ini.Next()
			var ans []byte
			if ans, err = resp.Respond(msg); err != nil {
				return
			}
			if err = ini.Absorb(ans); err != nil {
				return
			}
			rounds++
			wireBytes += len(msg) + len(ans)
		}
		diff = ini.Diff()
	}).Seconds()
	if err != nil {
		return err
	}
	if diff.Total() != len(upserts)+len(deletes) {
		return fmt.Errorf("replay: merkle reconciliation found %d differing paths, want %d", diff.Total(), len(upserts)+len(deletes))
	}
	m["merkle.reconcile_bytes"] = float64(wireBytes)
	m["merkle.reconcile_rounds"] = float64(rounds)
	return nil
}

func (rp *replay) manifest() error {
	tree, _, err := dirio.OpenTree(rp.w.serverRoot)
	if err != nil {
		return err
	}
	src := collection.NewTreeSource(tree, nil, 0, false)
	var entries []collection.ManifestEntry
	d := rp.timed("collection.manifest", 0, func() { entries, err = src.Manifest() })
	if err != nil {
		return err
	}
	if len(entries) != len(rp.w.server) {
		return fmt.Errorf("replay: manifest lists %d files, the server tree has %d", len(entries), len(rp.w.server))
	}
	rp.metrics["collection.manifest_s"] = d.Seconds()
	return nil
}

// pipe measures the raw copy rate of the in-memory pipe the sessions run on.
func (rp *replay) pipe() error {
	const chunk, total = 64 << 10, 16 << 20
	a, b := msync.Pipe()
	buf := make([]byte, chunk)
	var err error
	d := rp.timed("transport.pipe_copy", 0, func() {
		werr := make(chan error, 1)
		go func() {
			var e error
			for n := 0; n < total && e == nil; n += chunk {
				_, e = a.Write(buf)
			}
			a.Close()
			werr <- e
		}()
		var n int64
		n, err = io.Copy(io.Discard, b)
		if e := <-werr; err == nil {
			err = e
		}
		if err == nil && n != total {
			err = fmt.Errorf("replay: pipe delivered %d of %d bytes", n, total)
		}
	})
	b.Close()
	rp.metrics["transport.pipe_mb_per_s"] = perSec(mb(total), d)
	return err
}

// sigcache replays the signature cache on the workload's own entries: the
// server's warm cache directory is read through a cold memory layer (disk
// gets), read again (memory gets), and its signatures — level tables
// included — are written to a second, empty cache (puts).
func (rp *replay) sigcache() error {
	m, root := rp.metrics, rp.rec.begin("replay.sigcache", 0, 0)
	defer rp.rec.end(root)
	tree, _, err := dirio.OpenTree(rp.w.serverRoot)
	if err != nil {
		return err
	}
	fp := collection.ConfigFingerprint(&rp.cfg)
	var keys []sigcache.Key
	for _, fi := range tree.Files() {
		keys = append(keys, sigcache.Key{Path: fi.Path, Size: fi.Size, MTime: fi.MTime.UnixNano(), CTime: fi.CTime, Fingerprint: fp})
	}
	n := float64(len(keys))
	warm := sigcache.New(sigcache.Options{Dir: rp.w.sub("cache-server"), MemBytes: sigcacheMem})
	sigs := make([]*sigcache.Sig, len(keys))
	get := func(span string) (time.Duration, error) {
		var missed int
		d := rp.timed(span, root, func() {
			for i, k := range keys {
				sig, ok := warm.Get(k, nil)
				if !ok {
					missed++
				}
				sigs[i] = sig
			}
		})
		if missed > 0 {
			return 0, fmt.Errorf("replay: %d of %d files missing from the warm signature cache", missed, len(keys))
		}
		return d, nil
	}
	d, err := get("sigcache.get_disk")
	if err != nil {
		return err
	}
	m["sigcache.get_disk_ns"] = float64(d.Nanoseconds()) / n
	if d, err = get("sigcache.get_mem"); err != nil {
		return err
	}
	m["sigcache.get_mem_ns"] = float64(d.Nanoseconds()) / n

	empty := sigcache.New(sigcache.Options{Dir: filepath.Join(rp.tmp, "sigcache"), MemBytes: sigcacheMem})
	m0 := mallocs()
	d = rp.timed("sigcache.put", root, func() {
		for i, k := range keys {
			empty.Put(k, sigs[i])
		}
		empty.Flush()
	})
	m["sigcache.put_ns"] = float64(d.Nanoseconds()) / n
	m["sigcache.allocs_per_put"] = float64(mallocs()-m0) / n
	return nil
}

func storeEntries(manifest []collection.ManifestEntry) []store.Entry {
	entries := make([]store.Entry, len(manifest))
	for i, e := range manifest {
		entries[i] = store.Entry{Path: e.Path, Len: e.Len, Sum: e.Sum}
	}
	return entries
}

// store replays the version store on a copy of the workload's store
// directory: open (journal replay), one more snapshot after one more churn
// step, the journal delta a client one version back would be served, content
// reconstruction of the latest version, and — the store reopened with the
// segment bytes it holds as its budget — one more snapshot that has to
// collect. The measured sessions never collect (see workloads.go), so this is
// where the store's GC is timed and what it retains is counted.
func (rp *replay) store() error {
	m, root := rp.metrics, rp.rec.begin("replay.store", 0, 0)
	defer rp.rec.end(root)
	dir := filepath.Join(rp.tmp, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names, err := os.ReadDir(rp.w.sub("store"))
	if err != nil {
		return err
	}
	for _, de := range names {
		data, err := os.ReadFile(filepath.Join(rp.w.sub("store"), de.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, de.Name()), data, 0o644); err != nil {
			return err
		}
	}
	var st *store.Store
	m["store.open_s"] = rp.timed("store.open", root, func() { st, err = store.Open(dir, store.Options{}) }).Seconds()
	if err != nil {
		return err
	}
	defer func() { st.Close() }()

	// snapshot moves the server tree on one churn step and commits it to st.
	snapshot := func(span string) ([]collection.ManifestEntry, time.Duration, error) {
		if err := rp.w.advance(); err != nil {
			return nil, 0, err
		}
		tree, _, err := dirio.OpenTree(rp.w.serverRoot)
		if err != nil {
			return nil, 0, err
		}
		src := collection.NewTreeSource(tree, nil, 0, false)
		manifest, err := src.Manifest()
		if err != nil {
			return nil, 0, err
		}
		var cut bool
		d := rp.timed(span, root, func() {
			_, cut, err = st.Snapshot(storeEntries(manifest), collection.ManifestDigest(manifest), src.Load)
		})
		if err == nil && !cut {
			err = errors.New("replay: store.Snapshot cut no version after a churn step")
		}
		return manifest, d, err
	}

	base := st.LatestVersion()
	baseManifest := st.Manifest(base)
	baseEntries := make([]collection.ManifestEntry, len(baseManifest))
	for i, e := range baseManifest {
		baseEntries[i] = collection.ManifestEntry{Path: e.Path, Len: e.Len, Sum: e.Sum}
	}
	manifest, d, err := snapshot("store.snapshot")
	if err != nil {
		return err
	}
	m["store.snapshot_s"] = d.Seconds()
	var hit bool
	m["store.delta_s"] = rp.timed("store.delta", root, func() {
		_, hit = st.Delta(base, collection.ManifestDigest(baseEntries), collection.ManifestDigest(manifest))
	}).Seconds()
	if !hit {
		return errors.New("replay: store.Delta missed one version back")
	}

	var n int64
	d = 0
	for _, e := range manifest {
		if n >= replayPairBytes {
			break
		}
		var data []byte
		d += rp.timed("store.content", root, func() { data, err = st.Content(e.Sum) })
		if err != nil {
			return err
		}
		if sumOf(data) != (fileSum{e.Len, e.Sum}) {
			return fmt.Errorf("replay: store.Content(%q) returned other bytes", e.Path)
		}
		n += int64(len(data))
	}
	m["store.content_mb_per_s"] = perSec(mb(n), d)
	held := st.Stats()
	m["store.disk_bytes_per_user_byte"] = float64(held.SegmentBytes+held.JournalBytes) / float64(rp.w.serverBytes())

	if err := st.Close(); err != nil {
		return err
	}
	if st, err = store.Open(dir, store.Options{Budget: held.SegmentBytes}); err != nil {
		return err
	}
	if _, d, err = snapshot("store.snapshot_gc"); err != nil {
		return err
	}
	m["store.snapshot_gc_s"] = d.Seconds()
	kept := st.Stats()
	if kept.Versions > held.Versions {
		return fmt.Errorf("replay: a snapshot over the store's budget collected nothing: %d versions before, %d after", held.Versions, kept.Versions)
	}
	m["store.versions_retained"] = float64(kept.Versions)
	m["store.gc_size_ratio"] = float64(kept.SegmentBytes) / float64(held.SegmentBytes)
	return nil
}

// handlerTransport answers HTTP requests by calling the handler directly:
// publish mode's reader runs against the real server code without a socket.
type handlerTransport struct {
	h        http.Handler
	requests int
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests++
	rw := httptest.NewRecorder()
	t.h.ServeHTTP(rw, req)
	res := rw.Result()
	res.Request = req
	return res, nil
}

// pubsig publishes the client tree as version 1 and the server tree as
// version 2 into an in-memory artifact store, then brings a copy of the
// client tree to version 2 with a publish-mode reader.
func (rp *replay) pubsig() error {
	m, root := rp.metrics, rp.rec.begin("replay.pubsig", 0, 0)
	defer rp.rec.end(root)
	artifacts := pubsig.NewMemStore()
	pub, err := pubsig.NewPublisher(artifacts)
	if err != nil {
		return err
	}
	var publishDur time.Duration
	for _, side := range []string{rp.w.clientRoot, rp.w.serverRoot} {
		tree, _, err := dirio.OpenTree(side)
		if err != nil {
			return err
		}
		publishDur += rp.timed("pubsig.publish_tree", root, func() { _, _, err = pub.PublishTree(tree) })
		if err != nil {
			return err
		}
	}
	m["pubsig.publish_s"] = publishDur.Seconds()

	replica := filepath.Join(rp.tmp, "replica")
	for path := range rp.w.client {
		data, err := os.ReadFile(filepath.Join(rp.w.clientRoot, filepath.FromSlash(path)))
		if err != nil {
			return err
		}
		if err := rp.w.writeFile(replica, path, data); err != nil {
			return err
		}
	}
	srv, err := pubsig.NewServer(artifacts)
	if err != nil {
		return err
	}
	transport := &handlerTransport{h: srv}
	syncer := &pubsig.Syncer{Client: &http.Client{Transport: transport}, BaseURL: "http://publish.invalid", BaseVersion: 1}
	var res *pubsig.SyncResult
	m["pubsig.reader_sync_s"] = rp.timed("pubsig.reader_sync", root, func() {
		res, err = syncer.Sync(context.Background(), replica)
	}).Seconds()
	if err != nil {
		return err
	}
	m["pubsig.reader_requests"] = float64(transport.requests)
	m["pubsig.reader_bytes"] = float64(res.BytesDown)

	tree, _, err := dirio.OpenTree(replica)
	if err != nil {
		return err
	}
	files := tree.Files()
	if len(files) != len(rp.w.server) {
		return fmt.Errorf("replay: publish reader left %d files, the server has %d", len(files), len(rp.w.server))
	}
	for _, fi := range files {
		sum, _, err := tree.HashFile(fi.Path)
		if err != nil {
			return err
		}
		if sum != rp.w.server[fi.Path].Sum {
			return fmt.Errorf("replay: publish reader left %q differing from the server", fi.Path)
		}
	}
	return nil
}
