package collection

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msync/internal/alloctest"
	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/dirio"
	"msync/internal/md4"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// hostileLists are index-list payloads no honest peer sends, for a frame whose
// entries carry bodies (ROUND_HASHES, CONFIRM, ROUND_REPLY, FULL) or not
// (ACK). All are 16 bytes or less except "over" and "repeated".
func hostileLists(bodies bool) map[string][]byte {
	list := func(n uint64, idxs ...uint64) []byte {
		p := wire.AppendUvarint(nil, n)
		for _, i := range idxs {
			p = wire.AppendUvarint(p, i)
			if bodies {
				p = append(p, 0) // empty body
			}
		}
		return p
	}
	over := make([]uint64, 200)
	for i := range over {
		over[i] = uint64(i)
	}
	return map[string][]byte{
		"count 2^62":  list(1 << 62),                         // makeslice: cap out of range
		"count 2^31":  list(1 << 31),                         // a 64 GiB request
		"count>files": list(200, over...),                    // well-formed, but for files that do not exist
		"duplicate":   list(2, 0, 0),                         // two workers on one engine
		"descending":  list(2, 1, 0),                         // out of order
		"repeated":    list(1<<20, make([]uint64, 1<<20)...), // one file re-sent a million times
	}
}

// hostileFull is a FULL section body of twelve bytes that decodes as far as
// the allocation: a declared length of 4 GiB, the entropy-coded mode, two
// empty code tables (hostileStream in internal/delta's tests).
var hostileFull = append(wire.AppendUvarint(nil, 1<<32), 0, 0, 0, 0, 0, 0, 0)

// hostileDecoding declares 4 GiB like hostileFull, in 26 bytes, but decodes:
// valid code tables, a thousand bytes of output, then the end of the block
// (hostileDecoding in internal/delta's tests). It is for the receiver that
// cannot know the length, a verdict's: delta.Decode must find it corrupt at
// the cost of what it decoded, not of what it declares.
var hostileDecoding = func() []byte {
	enc := delta.Compress(bytes.Repeat([]byte("a"), 1000))
	_, n := binary.Uvarint(enc)
	return append(wire.AppendUvarint(nil, 1<<32), enc[n:]...)
}()

// hostileFullFrame is a FULL payload answering an ACK of ordinal 0 with body.
func hostileFullFrame(body []byte) []byte {
	b := wire.NewBuffer(16)
	b.Uvarint(1)
	b.Uvarint(0)
	b.Bytes(body)
	return b.Build()
}

// fullHandler is a receiving stream waiting for the FULL that answers its ACK
// of the given ordinals, each file announced at newLen bytes, with payload in
// flight.
func fullHandler(nFiles, newLen int, failed []int, payload []byte) *clientStream {
	cs := &clientStream{
		streamLink: &streamLink{inner: wire.FrameFull, payload: payload},
		files:      make([]clientFile, nFiles),
		acked:      true,
		failed:     failed,
	}
	for i := range cs.files {
		cs.files[i].newLen, cs.files[i].ack = newLen, i
	}
	return cs
}

// fullDeclaring4GiB rewrites a real FULL payload: the index list stays as the
// ACK asked for it, the first file's content becomes hostileFull.
func fullDeclaring4GiB(real []byte) []byte {
	secs, err := parseSections(real, 1<<20, true)
	if err != nil || len(secs) == 0 {
		panic("hostile_test: the session's FULL frame does not parse")
	}
	secs[0].body = hostileFull
	b := wire.NewBuffer(len(real))
	b.Uvarint(uint64(len(secs)))
	for _, sec := range secs {
		b.Uvarint(uint64(sec.idx))
		b.Bytes(sec.body)
	}
	return b.Build()
}

// verdictDeclaring4GiB rewrites a real VERDICTS payload: the first file sent
// whole, as a verdict or in the new-files trailer, becomes hostileDecoding;
// everything else stays.
func verdictDeclaring4GiB(real []byte) []byte {
	p, b := wire.NewParser(real), wire.NewBuffer(len(real))
	hit := false
	whole := func() {
		body, _ := p.Bytes()
		if !hit {
			body, hit = hostileDecoding, true
		}
		b.Bytes(body)
	}
	cfg, _ := p.Bytes()
	b.Bytes(cfg)
	n, _ := p.Uvarint()
	b.Uvarint(n)
	for ; n > 0; n-- {
		verdict, _ := p.Byte()
		b.Byte(verdict)
		switch verdict {
		case verdictFull:
			whole()
		case verdictSync:
			newLen, _ := p.Uvarint()
			b.Uvarint(newLen)
		}
	}
	n, _ = p.Uvarint()
	b.Uvarint(n)
	for ; n > 0; n-- {
		path, _ := p.String()
		b.String(path)
		whole()
	}
	if !hit || p.Remaining() != 0 {
		panic("hostile_test: no file sent whole in the session's VERDICTS frame")
	}
	return b.Build()
}

// tamperProxy sits between a client and a server and replaces the payload of
// the first frame matching (direction, type, type of the frame it answers)
// with a hostile one, unwrapping and rewrapping STREAM frames so the same
// cases run under both framings.
type tamperProxy struct {
	up      bool // tamper with the client's frames (false: the server's)
	typ     byte // per-file frame type to replace
	after   byte // ... when the stream's last frame the other way was this (0: any)
	payload []byte
	rewrite func(real []byte) []byte // in place of payload: derive it from the real frame
	retype  byte                     // nonzero: the replaced frame also changes its type to this

	mu   sync.Mutex
	last [2]map[int]byte // per direction and stream: last per-file frame type
	done bool
	fed  bytes.Buffer // everything forwarded in the tampered direction: what the victim read
}

// newTamperProxy is a proxy that has seen no frame yet.
func newTamperProxy(up bool, typ, after byte, payload []byte) *tamperProxy {
	tp := &tamperProxy{up: up, typ: typ, after: after, payload: payload}
	tp.last[0], tp.last[1] = map[int]byte{}, map[int]byte{}
	return tp
}

// run drives one session of cli against srv through the proxy and returns
// both ends' outcomes; a session that hangs on the hostile frame fails the test.
func (tp *tamperProxy) run(t *testing.T, srv *Server, cli *Client) (sc *stats.Costs, res *Result, serverErr, clientErr error) {
	t.Helper()
	cliEnd, proxyDown := transport.Pipe()
	proxyUp, srvEnd := transport.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The proxies too: each ends when the end it reads from has closed,
		// and until then the tampered direction's is still writing tp.fed.
		var wg sync.WaitGroup
		wg.Add(4)
		go func() { defer wg.Done(); tp.copyFrames(true, proxyDown, proxyUp) }()
		go func() { defer wg.Done(); tp.copyFrames(false, proxyUp, proxyDown) }()
		go func() { defer wg.Done(); defer srvEnd.Close(); sc, serverErr = srv.Serve(srvEnd) }()
		go func() { defer wg.Done(); defer cliEnd.Close(); res, clientErr = cli.Sync(cliEnd) }()
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("session hung on the hostile frame")
	}
	if !tp.done {
		t.Fatal("the session never sent the frame to tamper with")
	}
	return sc, res, serverErr, clientErr
}

func (tp *tamperProxy) copyFrames(up bool, from, to *transport.PipeEnd) {
	defer from.Close()
	defer to.Close()
	var out io.Writer = to
	if up == tp.up {
		out = io.MultiWriter(to, &tp.fed) // one goroutine per direction writes it
	}
	fr, fw := wire.NewFrameReader(from), wire.NewFrameWriter(out)
	dir := 0
	if up {
		dir = 1
	}
	for {
		ft, payload, err := fr.ReadFrame()
		if err != nil {
			return
		}
		id, inner, body := 0, ft, payload
		if ft == wire.FrameStream {
			sf, err := wire.ParseStreamFrame(payload, wire.MaxStreams)
			if err != nil {
				return
			}
			id, inner, body = sf.ID, sf.Type, sf.Payload
		}
		tp.mu.Lock()
		tp.last[dir][id] = inner
		hit := !tp.done && up == tp.up && inner == tp.typ && (tp.after == 0 || tp.last[1-dir][id] == tp.after)
		tp.done = tp.done || hit
		tp.mu.Unlock()
		if hit {
			if tp.rewrite != nil {
				body = tp.rewrite(body)
			} else {
				body = tp.payload
			}
			if ft == wire.FrameStream {
				b := wire.NewBuffer(len(body) + 4)
				wire.AppendStreamFrame(b, id, inner, body)
				body = b.Build()
			} else if tp.retype != 0 {
				ft = tp.retype
			}
			payload = body
		}
		if fw.WriteFrame(ft, payload) != nil || fw.Flush() != nil {
			return
		}
	}
}

// TestHostileIndexLists: a peer that sends an impossible index list — a count
// no session could have, more entries than files, a repeated or descending
// index — in any per-file frame, under either framing, gets a typed error
// from the other end: no panic (there is no recover anywhere), no allocation
// sized by its number, no engine handed to two workers. Likewise a FULL whose
// list is the one the ACK asked for but whose content declares another length
// than the verdict announced: delta.ErrCorrupt, before anything is allocated.
// And a verdict that ships a new file whole, whose length the client cannot
// know, declaring 4 GiB in 26 bytes: delta.ErrCorrupt once its ops run out
// (TestIndexListAllocation holds both ceilings). The handshake's two
// fixed-size frames have their own rows: hostileHandshakes.
func TestHostileIndexLists(t *testing.T) {
	t.Run("handshake", hostileHandshakes)
	v1, v2 := tinyTrees(12)
	v2new := map[string][]byte{"dir/new.txt": []byte("a file the client has never seen")}
	for path, data := range v2 {
		v2new[path] = data
	}
	frames := []struct {
		name       string
		up         bool
		typ, after byte
		rewrite    func(real []byte) []byte // the "declares 4 GiB" case of a frame that has one
	}{
		{"server/ROUND_REPLY", true, wire.FrameRoundReply, wire.FrameRoundHashes, nil},
		{"server/CONFIRM-reply", true, wire.FrameRoundReply, wire.FrameConfirm, nil},
		{"server/ACK", true, wire.FrameAck, 0, nil},
		{"client/ROUND_HASHES", false, wire.FrameRoundHashes, 0, nil},
		{"client/CONFIRM", false, wire.FrameConfirm, 0, nil},
		{"client/FULL", false, wire.FrameFull, 0, fullDeclaring4GiB},
		{"client/VERDICTS", false, wire.FrameVerdicts, 0, verdictDeclaring4GiB},
	}
	for _, fc := range frames {
		lists, serverFiles := hostileLists(fc.typ != wire.FrameAck), v2
		if fc.typ == wire.FrameVerdicts {
			lists, serverFiles = map[string][]byte{}, v2new // a verdict frame has no index list
		}
		if fc.rewrite != nil {
			lists["declares 4 GiB"] = nil // not a list: fc.rewrite derives it from the real frame
		}
		for name, payload := range lists {
			for _, width := range []int{0, 4} {
				fc, payload, width := fc, payload, width
				framing := "bare"
				if width > 0 {
					framing = "mux"
				}
				t.Run(fc.name+"/"+name+"/"+framing, func(t *testing.T) {
					t.Parallel()
					// weakConfig: the session has verification batches and a
					// FULL fallback to tamper with.
					srv, err := NewServer(serverFiles, weakConfig())
					if err != nil {
						t.Fatal(err)
					}
					srv.MuxStreams = width
					cli := NewClient(v1)
					cli.MuxStreams = width

					tp := newTamperProxy(fc.up, fc.typ, fc.after, payload)
					want := errIndexList
					if payload == nil {
						tp.rewrite, want = fc.rewrite, delta.ErrCorrupt
					}
					_, _, victim, other := tp.run(t, srv, cli)
					if !fc.up {
						victim, other = other, victim
					}
					if !errors.Is(victim, want) {
						t.Fatalf("victim returned %v, want %v", victim, want)
					}
					// FULL is a stream's last frame: a server can be done before the
					// client has read it.
					if other == nil && fc.typ != wire.FrameFull {
						t.Fatal("the other end completed a session its peer gave up on")
					}
				})
			}
		}
	}
}

// scriptConn plays a recorded peer: reads come from the script, writes vanish.
type scriptConn struct{ script bytes.Reader }

func (c *scriptConn) Read(p []byte) (int, error)  { return c.script.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return len(p), nil }

// helloWithoutVersion rewrites a hello: the same extensions, minus the first.
func helloWithoutVersion(real []byte) []byte {
	h := parseHelloExts(wire.NewParser(real[3:]))
	h.announce = -1
	b := wire.NewBuffer(len(real))
	b.Raw(real[:3])
	h.encode(b)
	return b.Build()
}

// packedEntry is one (shared, suffix, len) entry of a MANIFEST_PACKED column.
type packedEntry struct {
	shared int
	suffix string
}

// packedPayload assembles a MANIFEST_PACKED payload from parts that need not
// agree: the count n, the column of entries (each of length 1) compressed, and
// sums bytes of sums.
func packedPayload(n uint64, entries []packedEntry, sums int) []byte {
	col := wire.NewBuffer(64)
	for _, e := range entries {
		col.Uvarint(uint64(e.shared))
		col.String(e.suffix)
		col.Uvarint(1)
	}
	return packedWith(n, delta.Compress(col.Build()), sums)
}

// packedWith is packedPayload around an already compressed column.
func packedWith(n uint64, column []byte, sums int) []byte {
	b := wire.NewBuffer(len(column) + sums + 16)
	b.Uvarint(n)
	b.Bytes(column)
	b.Raw(make([]byte, sums))
	return b.Build()
}

// hostilePacked are MANIFEST_PACKED (width md4.Size) or MANIFEST_SHORT (width
// shortSum) payloads no receiver builds, one per check unpackManifest makes
// before allocating; "sums short" and "bytes after the sums" are derived from
// the live frame instead.
func hostilePacked(width int) map[string][]byte {
	long := strings.Repeat("a", 256*width) // 4 KB at width 16: the column stays under its cap
	repeats := make([]packedEntry, 100)
	for i := range repeats {
		repeats[i] = packedEntry{len(long), string(rune(i))} // ascending: long+"\x01", long+"\x02", ...
	}
	repeats[0] = packedEntry{0, long}
	return map[string][]byte{
		// 26 bytes of column declaring 4 GiB: refused before it is decoded.
		"column past its cap": packedWith(1, hostileDecoding, width),
		// A code table declaring more length codes than there are: a panic
		// in delta.Decode until PR 25 (internal/delta's FuzzDecode seed).
		"column past the alphabet":      packedWith(1, []byte("0\x00\x01\x9a\x01\x800'\x00\x7f0 \x06\x00\x00\x020"), width),
		"count past the payload":        packedPayload(1<<40, nil, 0),
		"shares past the previous path": packedPayload(2, []packedEntry{{0, "a"}, {2, "b"}}, 2*width),
		"column short of the count":     packedPayload(2, []packedEntry{{0, "a"}}, 2*width),
		"column past the count":         packedPayload(1, []packedEntry{{0, "a"}, {1, "b"}}, width),
		"descending pair":               packedPayload(2, []packedEntry{{0, "b"}, {0, "a"}}, 2*width),
		// A 4 KB path (768 bytes at width 3) shared a hundred times over, one
		// more byte after it each time: 400 KB of paths from a 1.9 KB frame.
		"paths past their cap": packedPayload(uint64(len(repeats)), repeats, len(repeats)*width),
	}
}

// hostileHandshakes runs the manifest-frame rows of TestHostileIndexLists:
// MANIFEST_REF and MANIFEST_WANT each have one legal place and one legal size,
// MANIFEST_PACKED and MANIFEST_SHORT one legal place — where MANIFEST is — and
// a payload that checks out before it is decoded, every manifest frame a list
// strictly ascending by path with no more entries than its bytes can hold, a
// tree-mode WANT such a list of the holder's own files, and the VERDICTS that
// answer MANIFEST_SHORT exactly one group sum per 64 unchanged files, the
// others none. A peer that sends any of them anywhere else, twice, at another
// size or malformed gets one typed error wrapping core.ErrProtocol from the
// other end, which a replay of what the victim read shows costs it less than
// 64 KB; a server refuses a WANT before it loads a file. Two rows are served,
// not refused: a REF
// whose hello announced nothing is a miss, and a SHORT is what a WANT is
// answered with (the legacy_journal_ref_miss_packed replay pins the holder's
// answer to a PACKED there).
func hostileHandshakes(t *testing.T) {
	v1, v2 := tinyTrees(12)
	for i := 0; i < 3; i++ { // unchanged files, so VERDICTS carries group sums
		p := fmt.Sprintf("same/f%d.txt", i)
		v1[p] = []byte(strings.Repeat(p, 40))
		v2[p] = v1[p]
	}
	digest := make([]byte, md4.Size)
	packed, fits := packManifest(BuildManifest(v1), md4.Size)
	short, fitsShort := packManifest(BuildManifest(v1), shortSum)
	if !fits || !fitsShort {
		t.Fatal("tinyTrees(12)'s manifest does not pack")
	}
	groupSums := func(real []byte) []byte { return append(real, make([]byte, md4.Size)...) }
	type row struct {
		name    string
		base    uint64 // the version the client announces; 0: it does not announce
		tree    bool
		up      bool // the victim is the server
		typ     byte
		retype  byte
		payload []byte
		rewrite func([]byte) []byte
		served  string // the session completes; this is the server's log line, if any
		version uint64 // for a served row: the version the client learns
		last    bool   // the tampered frame is the client's last: it may finish
	}
	rows := []row{
		{name: "server/REF of 15 bytes", base: 1, up: true, typ: wire.FrameManifestRef, payload: digest[:15]},
		{name: "server/REF of 17 bytes", base: 1, up: true, typ: wire.FrameManifestRef, payload: append(digest, 0)},
		{name: "server/REF without a version in the hello", base: 1, up: true, typ: wire.FrameHello, rewrite: helloWithoutVersion,
			served: "base=-1 current=2 reason=not_announced"},
		{name: "server/REF in tree mode", tree: true, up: true, typ: wire.FrameTree, retype: wire.FrameManifestRef, payload: digest},
		{name: "server/second REF after WANT", base: 99, up: true, typ: wire.FrameManifestShort, retype: wire.FrameManifestRef, payload: digest},
		{name: "client/WANT after MANIFEST", typ: wire.FrameVerdicts, retype: wire.FrameManifestWant, payload: []byte{}},
		{name: "client/WANT twice", base: 99, typ: wire.FrameVerdicts, retype: wire.FrameManifestWant, payload: []byte{}},
		{name: "client/WANT with a payload", base: 99, typ: wire.FrameManifestWant, payload: []byte{0}},
		{name: "server/PACKED in tree mode", tree: true, up: true, typ: wire.FrameTree, retype: wire.FrameManifestPacked, payload: packed},
		{name: "server/SHORT answering a WANT", base: 99, up: true, typ: wire.FrameManifestShort, payload: short,
			served: "base=99 current=2 reason=version_unknown", version: 2},
		{name: "server/PACKED after a REF hit", base: 1, up: true, typ: wire.FrameAck, retype: wire.FrameManifestPacked, payload: packed, last: true},
		{name: "server/PACKED sums short", up: true, typ: wire.FrameManifestShort, retype: wire.FrameManifestPacked, payload: packed[:len(packed)-1]},
		{name: "server/PACKED bytes after the sums", up: true, typ: wire.FrameManifestShort, retype: wire.FrameManifestPacked, payload: append(packed[:len(packed):len(packed)], 0)},
		{name: "server/SHORT in tree mode", tree: true, up: true, typ: wire.FrameTree, retype: wire.FrameManifestShort, payload: short},
		{name: "server/SHORT after a REF hit", base: 1, up: true, typ: wire.FrameAck, retype: wire.FrameManifestShort, payload: short, last: true},
		{name: "server/SHORT sums short", up: true, typ: wire.FrameManifestShort, rewrite: func(real []byte) []byte { return real[:len(real)-1] }},
		{name: "server/SHORT bytes after the sums", up: true, typ: wire.FrameManifestShort, rewrite: func(real []byte) []byte { return append(real, 0) }},
		// The group sums that answer MANIFEST_SHORT: one short, one too
		// many, and some where no MANIFEST_SHORT asked for them.
		{name: "client/VERDICTS group sums short", typ: wire.FrameVerdicts, rewrite: func(real []byte) []byte { return real[:len(real)-1] }},
		{name: "client/VERDICTS group sums past their count", typ: wire.FrameVerdicts, rewrite: groupSums},
		{name: "client/VERDICTS group sums in tree mode", tree: true, typ: wire.FrameVerdicts, rewrite: groupSums},
	}
	for name, payload := range hostilePacked(md4.Size) {
		rows = append(rows, row{name: "server/PACKED " + name, up: true, typ: wire.FrameManifestShort, retype: wire.FrameManifestPacked, payload: payload})
	}
	for name, payload := range hostilePacked(shortSum) {
		rows = append(rows, row{name: "server/SHORT " + name, up: true, typ: wire.FrameManifestShort, payload: payload})
	}
	for name, payload := range hostileWants() {
		rows = append(rows, row{name: "server/WANT " + name, tree: true, up: true, typ: wire.FrameWant, payload: payload})
	}
	// A MANIFEST in place of the client's MANIFEST_PACKED, holding a list no
	// receiver builds.
	m := BuildManifest(v1)
	for name, payload := range map[string][]byte{
		"duplicated path":      encodeManifest([]ManifestEntry{m[0], m[1], m[1]}),
		"descending pair":      encodeManifest([]ManifestEntry{m[1], m[0]}),
		"count past its bytes": append(wire.AppendUvarint(nil, 1<<20), encodeManifest(m)[1:]...),
	} {
		rows = append(rows, row{name: "server/MANIFEST " + name, up: true, typ: wire.FrameManifestShort, retype: wire.FrameManifest, payload: payload})
	}
	for _, row := range rows {
		for _, width := range []int{0, 4} {
			framing := "bare"
			if width > 0 {
				framing = "mux"
			}
			t.Run(row.name+"/"+framing, func(t *testing.T) {
				// Not parallel: the allocation ceiling below reads the
				// process's allocation counter.
				srv := versionedServer(t, v1, v2, core.DefaultConfig())
				srv.MuxStreams = width
				loads := &loadCounter{Source: srv.src}
				if row.typ == wire.FrameWant {
					srv.src = loads // a tree session needs no version store
				}
				cli := NewClient(v1)
				cli.MuxStreams, cli.TreeManifest = width, row.tree
				cli.AnnounceVersion, cli.BaseVersion = row.base > 0, row.base

				var log bytes.Buffer
				srv.Logger = slog.New(slog.NewTextHandler(&log, nil))

				tp := newTamperProxy(row.up, row.typ, 0, row.payload)
				tp.retype, tp.rewrite = row.retype, row.rewrite
				sc, res, victim, other := tp.run(t, srv, cli)
				if row.served != "" {
					if victim != nil || other != nil {
						t.Fatalf("server %v, client %v: want the session served", victim, other)
					}
					if err := VerifyAgainst(res.Files, v2); err != nil {
						t.Fatal(err)
					}
					if sc.JournalMisses != 1 || sc.JournalHits != 0 || res.Version != row.version {
						t.Fatalf("misses %d, hits %d, version %d: want one miss and version %d", sc.JournalMisses, sc.JournalHits, res.Version, row.version)
					}
					if !strings.Contains(log.String(), row.served) {
						t.Fatalf("server log, want the miss logged as %q:\n%s", row.served, &log)
					}
					return
				}
				if !row.up {
					victim, other = other, victim
				}
				if !errors.Is(victim, core.ErrProtocol) || (other == nil && !row.last) {
					t.Fatalf("victim returned %v (want core.ErrProtocol), the other end %v (want an error)", victim, other)
				}
				if n := loads.n.Load(); n > 0 {
					t.Fatalf("the server loaded %d files before refusing the frame", n)
				}
				if row.last && sc.JournalHits != 1 {
					t.Fatalf("%d journal hits: the row is about a frame after a hit", sc.JournalHits)
				}
				// What the victim read, read again: the same error, cheaply.
				// (Sixteen runs: under the race detector sync.Pool drops a
				// quarter of what is put, and one dropped 64 KB frame
				// reader is the whole ceiling.)
				srv.Logger = nil
				conn := &scriptConn{}
				got := alloctest.BytesPerOp(16, func() {
					conn.script.Reset(tp.fed.Bytes())
					var err error
					if row.up {
						_, err = srv.Serve(conn)
					} else {
						_, err = cli.Sync(conn)
					}
					if !errors.Is(err, core.ErrProtocol) {
						t.Fatalf("replayed: %v, want core.ErrProtocol", err)
					}
				})
				if got >= 64<<10 {
					t.Errorf("refusing the frame cost the victim %d B, ceiling %d", got, 64<<10)
				}
			})
		}
	}
}

// hostileWants are tree-mode WANT payloads no receiver sends, against the
// paths of tinyTrees: one names a file twice, out of order, one the holder
// does not list, with a have byte the protocol does not define, or more
// entries than its bytes can hold.
func hostileWants() map[string][]byte {
	p0, p1 := "dir/f000.txt", "dir/f001.txt"
	return map[string][]byte{
		"repeated path":        wantPayload(wantHave, p0, p0),
		"descending pair":      wantPayload(wantHave, p1, p0),
		"unlisted path":        wantPayload(wantAbsent, "dir/../dir/f000.txt"),
		"have 3":               wantPayload(3, p0),
		"count past its bytes": append(wire.AppendUvarint(nil, 1<<20), wantPayload(wantHave, p0)[1:]...),
	}
}

// wantPayload is a WANT naming paths, each with the have byte given.
func wantPayload(have byte, paths ...string) []byte {
	b := wire.NewBuffer(64)
	b.Uvarint(uint64(len(paths)))
	for _, p := range paths {
		b.String(p)
		b.Byte(have)
	}
	return b.Build()
}

// loadCounter counts the files a session loads from its source.
type loadCounter struct {
	Source
	n atomic.Int64
}

func (c *loadCounter) Load(path string) ([]byte, error) {
	c.n.Add(1)
	return c.Source.Load(path)
}

// TestTreeWantStaysInsideTheWalk: a server over a directory answers a WANT
// only for files its walk listed. A symlink under the root that points outside
// it is one the walk skips, and a WANT naming it is refused with
// core.ErrProtocol before anything is loaded — the target's content never
// leaves in a VERDICTS frame.
func TestTreeWantStaysInsideTheWalk(t *testing.T) {
	root, outside := t.TempDir(), t.TempDir()
	secret := filepath.Join(outside, "secret.txt")
	if err := os.WriteFile(filepath.Join(root, "a.txt"), []byte("inside the root\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(secret, []byte("outside the root\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(secret, filepath.Join(root, "link.txt")); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	tree, _, err := dirio.OpenTree(root)
	if err != nil {
		t.Fatal(err)
	}
	loads := &loadCounter{Source: NewTreeSource(tree, nil, 0, false)}
	srv, err := NewServerSource(loads, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.NewBuffer(8)
	hello.Uvarint(protocolVersion)
	hello.Byte(rolePull)
	hello.Byte(modeTree)
	for _, want := range [][]byte{
		wantPayload(wantAbsent, "link.txt"),
		wantPayload(wantAbsent, "a.txt", "link.txt"),
	} {
		conn := &recordingScript{}
		conn.script.Reset(wireBytes(t, []wireFrame{{wire.FrameHello, hello.Build()}, {wire.FrameWant, want}}))
		_, err := srv.Serve(conn)
		if !errors.Is(err, core.ErrProtocol) {
			t.Errorf("a WANT naming the symlink: %v, want core.ErrProtocol", err)
		}
		for _, f := range transcriptFrames(t, conn.out.Bytes()) {
			if f.typ == wire.FrameVerdicts {
				t.Errorf("the server answered a WANT naming the symlink with %d bytes of VERDICTS", len(f.payload))
			}
		}
	}
	if n := loads.n.Load(); n > 0 {
		t.Errorf("the server loaded %d files for WANTs it refuses", n)
	}
}

// recordingScript is a scriptConn that keeps what the other end writes.
type recordingScript struct {
	scriptConn
	out bytes.Buffer
}

func (c *recordingScript) Write(p []byte) (int, error) { return c.out.Write(p) }

// TestRefAgainstOlderServer: a server from before MANIFEST_REF expects a
// MANIFEST after the hello, and one from before MANIFEST_PACKED or from before
// MANIFEST_SHORT any manifest frame it knows; each says so in an ERROR frame
// naming the frame it got by the only name its build has for it,
// UNKNOWN(type). A client that announces a version, and one that does not but
// packs its manifest (as MANIFEST_SHORT, frame 22), fails at once with a
// handshake error carrying that complaint — which msync's retry loop reads as
// not worth a retry (TestRetryStopsAtOlderServer), and the cue to sync in tree
// mode — and never waits for an answer that cannot come.
func TestRefAgainstOlderServer(t *testing.T) {
	v1, _ := tinyTrees(12)
	beforeRef := func(ft byte, _ []byte) string { // what wire.ExpectFrame said then
		return fmt.Sprintf("wire: expected frame MANIFEST, got UNKNOWN(%d)", ft)
	}
	beforeShort := func(ft byte, payload []byte) string { // errFrame, then
		return fmt.Sprintf("core: protocol error: unexpected frame UNKNOWN(%d) of %d bytes", ft, len(payload))
	}
	for _, c := range []struct {
		name      string
		base      uint64
		complaint func(byte, []byte) string
	}{
		{"announced/before REF", 3, beforeRef},
		{"short/before REF", 0, beforeRef},
		{"short/before PACKED", 0, beforeShort},
		{"short/before SHORT", 0, beforeShort},
	} {
		cli := NewClient(v1)
		cli.AnnounceVersion, cli.BaseVersion = c.base > 0, c.base
		a, b := transport.Pipe()
		complained := make(chan string, 1)
		go func() {
			defer a.Close()
			fr, fw := wire.NewFrameReader(a), wire.NewFrameWriter(a)
			if _, err := fr.ExpectFrame(wire.FrameHello); err != nil {
				return
			}
			msg := "the client sent its manifest"
			if ft, payload, err := fr.ReadFrame(); err != nil {
				msg = err.Error()
			} else if ft != wire.FrameManifest {
				msg = c.complaint(ft, payload)
			}
			complained <- msg
			_ = fw.WriteFrame(wire.FrameError, []byte(msg))
			_ = fw.Flush()
		}()
		done := make(chan error, 1)
		go func() {
			_, err := cli.Sync(b)
			b.Close()
			done <- err
		}()
		select {
		case err := <-done:
			msg := <-complained
			if c.base == 0 && !strings.Contains(msg, fmt.Sprintf("UNKNOWN(%d)", wire.FrameManifestShort)) {
				t.Fatalf("%s: the client sent no MANIFEST_SHORT: %q", c.name, msg)
			}
			if !errors.Is(err, ErrHandshake) || !strings.Contains(err.Error(), msg) || !strings.Contains(msg, "UNKNOWN(") {
				t.Fatalf("%s: client returned %v, want ErrHandshake carrying the older server's %q", c.name, err, msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the client hung on an older server", c.name)
		}
	}
}

// wireBytes serializes frames the way a FrameWriter puts them on a connection.
func wireBytes(t *testing.T, frames []wireFrame) []byte {
	t.Helper()
	var out bytes.Buffer
	fw := wire.NewFrameWriter(&out)
	for _, f := range frames {
		if err := fw.WriteFrame(f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestOversizedHelloRefused: the HELLO is the one frame a server reads before
// it knows anything of its peer, so its length is capped at maxHello. A header
// declaring more is refused as a protocol error before a payload byte is read:
// a peer streaming a megabyte behind a 1 GiB header costs the server less than
// 64 KB. A HELLO at the cap is read, and refused for what it says.
func TestOversizedHelloRefused(t *testing.T) {
	srv, err := NewServer(map[string][]byte{"a": []byte("x")}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, declared := range []uint64{wire.MaxFrameSize, maxHello + 1, maxHello} {
		script := append([]byte{wire.FrameHello}, wire.AppendUvarint(nil, declared)...)
		script = append(script, make([]byte, min(declared, 1<<20))...)
		conn := &scriptConn{}
		var err error
		got := alloctest.BytesPerOp(16, func() { // sixteen: see hostileHandshakes
			conn.script.Reset(script)
			_, err = srv.Serve(conn)
		})
		if capped := declared > maxHello; errors.Is(err, core.ErrProtocol) != capped || err == nil {
			t.Errorf("HELLO declaring %d bytes: %v", declared, err)
		} else if capped && got >= 64<<10 {
			t.Errorf("HELLO declaring %d bytes cost %d B, ceiling %d", declared, got, 64<<10)
		}
	}
}

// TestRefHandshakeAllocation: what a server allocates to answer a journal hit
// named by reference does not depend on how many files the client holds — 200
// or 4 000, it reads 18 bytes and iterates its own stored list — where the
// same hit announced with the MANIFEST costs it the frame, some 30 bytes a
// file (and nothing else: a hit by either frame never decodes a manifest).
func TestRefHandshakeAllocation(t *testing.T) {
	serve := func(files int, withManifest bool) uint64 {
		tree1, tree2 := manyFiles(files)
		srv := versionedServer(t, tree1, tree2, core.DefaultConfig())
		cli := NewClient(tree1)
		cli.AnnounceVersion, cli.BaseVersion = true, 1
		c2s, _ := runRecorded(t, srv, cli)
		if withManifest {
			frames := transcriptFrames(t, c2s)
			frames[1] = wireFrame{wire.FrameManifest, encodeManifest(BuildManifest(tree1))}
			c2s = wireBytes(t, frames)
		}
		conn := &scriptConn{}
		return alloctest.BytesPerOp(16, func() { // sixteen: see hostileHandshakes
			conn.script.Reset(c2s)
			sc, err := srv.Serve(conn)
			if err != nil || sc.JournalHits != 1 {
				t.Fatalf("replayed hit over %d files: %v, %d hits", files, err, sc.JournalHits)
			}
		})
	}
	small, large, legacy := serve(200, false), serve(4000, false), serve(4000, true)
	t.Logf("server bytes allocated per hit: %d over 200 files, %d over 4000, %d over 4000 sent as MANIFEST", small, large, legacy)
	if large > small+16<<10 {
		t.Errorf("a REF hit over 4000 files allocates %d B on the server, over 200 files %d B: it grows with the client's tree", large, small)
	}
	if legacy < large+100<<10 {
		t.Errorf("a MANIFEST hit over 4000 files allocates %d B, a REF hit %d B: expected the frame to cost 100 KB more", legacy, large)
	}
}

// TestIndexListAllocation: what parsing a hostile list may allocate is bounded
// by its payload, not by the count it declares — even in a session with a
// million files, where count ≤ files alone would admit a 32 MB request. And
// what a FULL section may allocate is bounded by the length the verdict
// announced, not the one its stream declares: the handler both framers feed
// refuses hostileFull for less than 64 KB (at 4 GiB before DecodeLen). A
// verdict's whole file has no announced length: what session.verdicts hands
// hostileDecoding to, delta.Decompress, allocates what its ops produce.
func TestIndexListAllocation(t *testing.T) {
	if len(hostileFull) > 32 || len(hostileDecoding) > 32 {
		t.Fatalf("hostile bodies are %d and %d bytes", len(hostileFull), len(hostileDecoding))
	}
	for _, body := range [][]byte{hostileFull, hostileDecoding} {
		got := alloctest.BytesPerOp(5, func() {
			if err := fullHandler(1, 4000, []int{0}, hostileFullFrame(body)).handle(1); !errors.Is(err, delta.ErrCorrupt) {
				t.Fatalf("FULL declaring 4 GiB for a 4000-byte file: %v, want delta.ErrCorrupt", err)
			}
		})
		if got >= 64<<10 {
			t.Errorf("the hostile FULL section cost %d B, ceiling %d", got, 64<<10)
		}
	}
	got := alloctest.BytesPerOp(5, func() {
		if _, err := delta.Decompress(hostileDecoding); !errors.Is(err, delta.ErrCorrupt) {
			t.Fatalf("a whole file declaring 4 GiB in %d bytes: %v, want delta.ErrCorrupt", len(hostileDecoding), err)
		}
	})
	if got >= 64<<10 {
		t.Errorf("the hostile verdict payload cost %d B, ceiling %d", got, 64<<10)
	}

	const files = 1 << 20
	for _, bodies := range []bool{true, false} {
		lists := hostileLists(bodies)
		lists["count=files"] = wire.AppendUvarint(nil, files)
		for name, payload := range lists {
			if len(payload) > 16 {
				continue
			}
			if _, err := parseSections(payload, files, bodies); err == nil {
				t.Errorf("%s (bodies=%v): accepted", name, bodies)
			}
			got := alloctest.BytesPerOp(5, func() { parseSections(payload, files, bodies) })
			if got >= 64<<10 {
				t.Errorf("%s (bodies=%v): %d bytes allocated for a %d-byte payload", name, bodies, got, len(payload))
			}
		}
	}
}

// TestHelloExtsRoundTrip: the one encoder and the one parser agree, an
// extension-free hello carries no trailer at all, and a trailer that is
// truncated or malformed anywhere is a shorter hello, never an error.
func TestHelloExtsRoundTrip(t *testing.T) {
	for _, h := range []helloExts{
		{announce: -1},
		{announce: 0},
		{announce: 7, mux: 16, treeCaps: treeCapSpec | treeCapCross, mapMode: core.MapCDC},
		{announce: -1, mux: 4},
		{announce: -1, treeCaps: treeCapCross},
		{announce: -1, mapMode: core.MapCDC},
	} {
		b := wire.NewBuffer(32)
		h.encode(b)
		if h == (helloExts{announce: -1}) && b.Len() != 0 {
			t.Fatalf("extension-free hello grew a %d-byte trailer", b.Len())
		}
		if got := parseHelloExts(wire.NewParser(b.Build())); got != h {
			t.Fatalf("round trip of %+v gave %+v", h, got)
		}
		for cut := 0; cut < b.Len(); cut++ {
			parseHelloExts(wire.NewParser(b.Build()[:cut])) // must not panic
		}
	}
	// Requests beyond what this implementation knows are cut down, not refused.
	b := wire.NewBuffer(32)
	helloExts{announce: -1, mux: wire.MaxStreams + 5, treeCaps: 0xFF}.encode(b)
	got := parseHelloExts(wire.NewParser(b.Build()))
	if got.mux != wire.MaxStreams || got.treeCaps != treeCapSpec|treeCapCross {
		t.Fatalf("unclamped hello: %+v", got)
	}
}
