package collection

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math"
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

// fullHandler hands payload, as the FULL frame that answers its ACK of the
// given ordinals, to a receiving stream whose files were each announced at
// newLen bytes, and returns what the stream made of it.
func fullHandler(nFiles, newLen int, failed []int, payload []byte) error {
	cs := &clientStream{files: make([]clientFile, nFiles), acked: true, failed: failed}
	for i := range cs.files {
		cs.files[i].newLen, cs.files[i].ack = newLen, i
	}
	_, _, err := cs.handle(1, wire.FrameFull, payload)
	return err
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

// verdictWhole is a VERDICTS payload of unnamed verdicts taken apart around
// its whole files, for the rewriters below: where each whole file's field
// lies — its compressed bytes, or under a granted stream its length — and
// where the stream's segments lie, as offsets into real, and the files'
// content.
type verdictWhole struct {
	real     []byte
	grant    grant
	stream   bool
	fields   [][2]int
	segs     [2]int
	content  [][]byte
	syncLens []uint64 // the sync verdicts' lengths: the engines' files, in order
}

// wholeOf takes apart a VERDICTS payload of unnamed verdicts that sends a
// file whole.
func wholeOf(real []byte) verdictWhole {
	v := parseWhole(real, false)
	if len(v.fields) == 0 {
		panic("hostile_test: no file sent whole in the session's VERDICTS frame")
	}
	return v
}

// parseWhole takes a VERDICTS payload apart, each verdict after an 8-byte
// name if named; it panics on one it cannot read.
func parseWhole(real []byte, named bool) verdictWhole {
	v := verdictWhole{real: real}
	p := wire.NewParser(real)
	at := func() int { return len(real) - p.Remaining() }
	must := func(err error) {
		if err != nil {
			panic("hostile_test: the session's VERDICTS frame does not parse: " + err.Error())
		}
	}
	var lens []uint64
	whole := func() {
		start := at()
		if v.stream {
			n, err := p.Uvarint()
			must(err)
			lens = append(lens, n)
		} else {
			comp, err := p.Bytes()
			must(err)
			data, err := delta.Decompress(comp)
			must(err)
			v.content = append(v.content, data)
		}
		v.fields = append(v.fields, [2]int{start, at()})
	}
	cfg, err := p.Bytes()
	must(err)
	_, v.grant, err = decodeConfig(cfg)
	must(err)
	v.stream = v.grant >= grantStream
	n, err := p.Uvarint()
	must(err)
	for ; n > 0; n-- {
		if named {
			_, err := p.Raw(8)
			must(err)
		}
		verdict, err := p.Byte()
		must(err)
		switch verdict {
		case verdictFull:
			whole()
		case verdictSync:
			var n uint64
			n, err = p.Uvarint()
			v.syncLens = append(v.syncLens, n)
		case verdictJournal:
			_, err = p.Uvarint()
			if err == nil {
				_, err = p.Raw(md4.Size)
			}
			if err == nil {
				_, err = p.Bytes()
			}
		}
		must(err)
	}
	n, err = p.Uvarint()
	must(err)
	for ; n > 0; n-- {
		_, err := p.String()
		must(err)
		whole()
	}
	v.segs = [2]int{at(), at()}
	if v.stream {
		lo := 0
		for _, hi := range segmentEnds(lens, segmentMax) {
			seg, err := p.Bytes()
			must(err)
			data, err := delta.Decompress(seg)
			must(err)
			for _, n := range lens[lo:hi] {
				v.content, data = append(v.content, data[:n]), data[n:]
			}
			lo = hi
		}
		v.segs[1] = at()
	}
	return v
}

// build reassembles the payload with each whole file's field replaced by
// fields[i] (nil: as it was) and the stream's segments by segs.
func (v verdictWhole) build(fields [][]byte, segs []byte) []byte {
	out, at := []byte(nil), 0
	for i, f := range v.fields {
		out = append(out, v.real[at:f[0]]...)
		if fields[i] == nil {
			fields[i] = v.real[f[0]:f[1]]
		}
		out, at = append(out, fields[i]...), f[1]
	}
	out = append(append(out, v.real[at:v.segs[0]]...), segs...)
	return append(out, v.real[v.segs[1]:]...)
}

// segments are the stream's segments.
func (v verdictWhole) segments() [][]byte {
	p := wire.NewParser(v.real[v.segs[0]:v.segs[1]])
	var out [][]byte
	for p.Remaining() > 0 {
		seg, _ := p.Bytes()
		out = append(out, seg)
	}
	return out
}

// streamOf is segs as a stream's bytes.
func streamOf(segs ...[]byte) []byte {
	b := wire.NewBuffer(64)
	for _, seg := range segs {
		b.Bytes(seg)
	}
	return b.Build()
}

// restream is the stream of content with the first file's length announced
// as first and its segment, alone as a file that long is, replaced by seg:
// the fields and segments build takes.
func (v verdictWhole) restream(first uint64, seg []byte) ([][]byte, []byte) {
	fields := make([][]byte, len(v.fields))
	fields[0] = wire.AppendUvarint(nil, first)
	lens := []uint64{first}
	for _, c := range v.content[1:] {
		lens = append(lens, uint64(len(c)))
	}
	segs, lo := [][]byte{seg}, 1
	for _, hi := range segmentEnds(lens, segmentMax)[1:] {
		segs, lo = append(segs, delta.Compress(bytes.Join(v.content[lo:hi], nil))), hi
	}
	return fields, streamOf(segs...)
}

// verdictDeclaring4GiB rewrites a real VERDICTS payload: the first file sent
// whole becomes hostileDecoding — in the per-file layout its field, under a
// granted stream a segment of its own, its length announced at the 4 GiB the
// segment declares; everything else stays.
func verdictDeclaring4GiB(real []byte) []byte {
	v := wholeOf(real)
	if !v.stream {
		fields := make([][]byte, len(v.fields))
		fields[0] = lenPrefixed(hostileDecoding)
		return v.build(fields, nil)
	}
	return v.build(v.restream(1<<32, hostileDecoding))
}

// lenPrefixed is b as a bytes field.
func lenPrefixed(b []byte) []byte { return append(wire.AppendUvarint(nil, uint64(len(b))), b...) }

// hostileStreams rewrite a VERDICTS payload under a granted stream, one per
// check the receiver makes before it decodes a segment. The session they run
// in sends a file past segmentMax first, so its stream has two segments, and
// they lie about the last: a receiver that decoded a segment before it
// checked the next would pay a megabyte for the first.
var hostileStreams = map[string]func(real []byte) []byte{
	// The last whole file announced a byte longer than it is: its segment
	// declares a length other than its files' sum.
	"length lies": func(real []byte) []byte {
		v := wholeOf(real)
		fields := make([][]byte, len(v.fields))
		last := len(fields) - 1
		fields[last] = wire.AppendUvarint(nil, uint64(len(v.content[last])+1))
		return v.build(fields, v.real[v.segs[0]:v.segs[1]])
	},
	// The last segment declares a byte more than its files' lengths sum to.
	"segment declares another sum": func(real []byte) []byte {
		v := wholeOf(real)
		segs := v.segments()
		last := segs[len(segs)-1]
		declared, k := binary.Uvarint(last)
		segs[len(segs)-1] = append(wire.AppendUvarint(nil, declared+1), last[k:]...)
		return v.build(make([][]byte, len(v.fields)), streamOf(segs...))
	},
	// A length past the 4 GiB delta.Decode caps a stream at.
	"length of 2^32+1": func(real []byte) []byte {
		v := wholeOf(real)
		return v.build(v.restream(1<<32+1, hostileDecoding))
	},
	// The stream without its last segment.
	"segment missing": func(real []byte) []byte {
		v := wholeOf(real)
		segs := v.segments()
		return v.build(make([][]byte, len(v.fields)), streamOf(segs[:len(segs)-1]...))
	},
	// A byte between the stream and the detector's trailer.
	"bytes after the stream": func(real []byte) []byte {
		v := wholeOf(real)
		return v.build(make([][]byte, len(v.fields)), append(bytes.Clone(v.real[v.segs[0]:v.segs[1]]), 0))
	},
}

// tamperProxy sits between a client and a server and replaces the payload of
// the first frame matching (direction, type, type of the frame it answers)
// with a hostile one. With mux set, the client's HELLO reaches the server
// asking for the retired stream multiplexing too (withMuxExt), as a client
// from before its retirement sent it: the same cases run against a server
// that ignores the request.
type tamperProxy struct {
	up      bool // tamper with the client's frames (false: the server's)
	typ     byte // frame type to replace
	after   byte // ... when the last frame the other way was this (0: any)
	payload []byte
	rewrite func(real []byte) []byte // in place of payload: derive it from the real frame
	retype  byte                     // nonzero: the replaced frame goes out as this type
	mux     int                      // nonzero: the stream width the client's HELLO asks for

	mu   sync.Mutex
	last [2]byte // per direction: last frame type
	done bool
	fed  bytes.Buffer // everything forwarded in the tampered direction: what the victim read
}

// newTamperProxy is a proxy that has seen no frame yet.
func newTamperProxy(up bool, typ, after byte, payload []byte, mux int) *tamperProxy {
	return &tamperProxy{up: up, typ: typ, after: after, payload: payload, mux: mux}
}

// run drives one session through the proxy, srv's against the connecting
// end's in dial (a client's Sync, or a pusher's), and returns both ends'
// outcomes; a session that hangs on the hostile frame fails the test.
func (tp *tamperProxy) run(t *testing.T, srv *Server, dial func(io.ReadWriter) (*Result, error)) (sc *stats.Costs, res *Result, serverErr, clientErr error) {
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
		go func() { defer wg.Done(); defer cliEnd.Close(); res, clientErr = dial(cliEnd) }()
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
		if up && ft == wire.FrameHello && tp.mux > 0 {
			payload = withMuxExt(payload, tp.mux)
		}
		tp.mu.Lock()
		tp.last[dir] = ft
		hit := !tp.done && up == tp.up && ft == tp.typ && (tp.after == 0 || tp.last[1-dir] == tp.after)
		tp.done = tp.done || hit
		tp.mu.Unlock()
		if hit {
			if tp.rewrite != nil {
				payload = tp.rewrite(payload)
			} else {
				payload = tp.payload
			}
			if tp.retype != 0 {
				ft = tp.retype
			}
		}
		if fw.WriteFrame(ft, payload) != nil || fw.Flush() != nil {
			return
		}
	}
}

// TestHostileIndexLists: a peer that sends an impossible index list — a count
// no session could have, more entries than files, a repeated or descending
// index — in any per-file frame gets a typed error from the other end: no
// panic (there is no recover anywhere), no allocation sized by its number, no
// engine handed to two workers. Likewise a FULL whose
// list is the one the ACK asked for but whose content declares another length
// than the verdict announced: delta.ErrCorrupt, before anything is allocated.
// And a verdict that ships a new file whole, whose length the client cannot
// know, declaring 4 GiB in 26 bytes: delta.ErrCorrupt once its ops run out
// (TestIndexListAllocation holds both ceilings). Every case runs twice: "bare"
// with today's client, "mux" with its HELLO asking for the retired stream
// multiplexing, which the server ignores — the same lockstep session, the
// same refusal. The handshake's frames have their own rows:
// hostileHandshakes.
func TestHostileIndexLists(t *testing.T) {
	t.Run("handshake", hostileHandshakes)
	t.Run("client/DELTA stream", hostileDeltaStreamRows)
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
		push       bool                     // the session is a push: its VERDICTS come file by file
	}{
		{"server/ROUND_REPLY", true, wire.FrameRoundReply, wire.FrameRoundHashes, nil, false},
		{"server/CONFIRM-reply", true, wire.FrameRoundReply, wire.FrameConfirm, nil, false},
		{"server/ACK", true, wire.FrameAck, 0, nil, false},
		{"client/ROUND_HASHES", false, wire.FrameRoundHashes, 0, nil, false},
		{"client/CONFIRM", false, wire.FrameConfirm, 0, nil, false},
		{"client/FULL", false, wire.FrameFull, 0, fullDeclaring4GiB, false},
		{"client/VERDICTS", false, wire.FrameVerdicts, 0, verdictDeclaring4GiB, false},
		{"server/pushed VERDICTS", true, wire.FrameVerdicts, 0, verdictDeclaring4GiB, true},
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
			for _, mux := range []int{0, 4} {
				fc, payload, mux := fc, payload, mux
				hello := "bare"
				if mux > 0 {
					hello = "mux"
				}
				t.Run(fc.name+"/"+name+"/"+hello, func(t *testing.T) {
					t.Parallel()
					// weakConfig: the session has verification batches and a
					// FULL fallback to tamper with.
					srv, err := NewServer(serverFiles, weakConfig())
					if err != nil {
						t.Fatal(err)
					}
					dial := NewClient(v1).Sync
					if fc.push {
						srv, dial = pushEnds(t, v1, serverFiles, weakConfig())
					}

					tp := newTamperProxy(fc.up, fc.typ, fc.after, payload, mux)
					want := errIndexList
					if payload == nil {
						tp.rewrite, want = fc.rewrite, delta.ErrCorrupt
					}
					_, _, victim, other := tp.run(t, srv, dial)
					if !fc.up {
						victim, other = other, victim
					}
					if !errors.Is(victim, want) || !errors.Is(victim, core.ErrProtocol) {
						t.Fatalf("victim returned %v, want %v wrapping core.ErrProtocol", victim, want)
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

// hostileDeltaStreamRows: a holder whose DELTA frame, in the stream layout,
// lies about its segments — one missing, a byte after the last, one
// declaring another length than its files' gaps or 4 GiB — gets
// core.ErrProtocol from today's receiver (delta.ErrCorrupt too where a
// segment declares a length), in a live session whose engines have mapped,
// and from one whose HELLO also asks for the retired stream multiplexing.
// TestDeltaStreamRefusedCheaply holds the refusals to the 64 KB ceiling.
func hostileDeltaStreamRows(t *testing.T) {
	v1, v2 := tinyTrees(12)
	for name, h := range hostileDeltaStreams {
		for _, mux := range []int{0, 4} {
			hello := "bare"
			if mux > 0 {
				hello = "mux"
			}
			t.Run(name+"/"+hello, func(t *testing.T) {
				t.Parallel()
				srv, err := NewServer(v2, weakConfig())
				if err != nil {
					t.Fatal(err)
				}
				tp := newTamperProxy(false, wire.FrameDelta, 0, nil, mux)
				tp.rewrite = h.rewrite
				_, _, other, victim := tp.run(t, srv, NewClient(v1).Sync)
				if !errors.Is(victim, core.ErrProtocol) || h.declares != errors.Is(victim, delta.ErrCorrupt) {
					t.Fatalf("victim returned %v, want core.ErrProtocol, delta.ErrCorrupt %v", victim, h.declares)
				}
				if other == nil {
					t.Fatal("the other end completed a session its peer gave up on")
				}
			})
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

// helloWith rewrites a hello: its byte at (0 the version, 1 the role, 2 the
// manifest mode) becomes v.
func helloWith(at int, v byte) func(real []byte) []byte {
	return func(real []byte) []byte {
		h := bytes.Clone(real)
		h[at] = v
		return h
	}
}

// inStream rewrites the payload of a per-file frame of type ft as the STREAM
// frame that carried it for stream 0 of a multiplexed session.
func inStream(ft byte) func(real []byte) []byte {
	return func(real []byte) []byte {
		b := wire.NewBuffer(len(real) + 2)
		wire.AppendStreamFrame(b, 0, ft, real)
		return b.Build()
	}
}

// unknownVerdict rewrites a VERDICTS payload: its first verdict becomes a
// byte no holder sends.
func unknownVerdict(real []byte) []byte {
	p := wire.NewParser(real)
	p.Bytes() // the config
	if n, err := p.Uvarint(); err != nil || n == 0 {
		panic("hostile_test: the session's VERDICTS frame has no verdict")
	}
	v := bytes.Clone(real)
	v[len(real)-p.Remaining()] = 0xff
	return v
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
// others none, under a config that Validate accepts (in a pull the client
// decodes it, in a push the server). A peer that sends any of them anywhere
// else, twice, at another size or malformed gets one typed error wrapping
// core.ErrProtocol from the other end, which a replay of what the victim read
// shows costs it less than 64 KB; a server refuses a WANT before it loads a
// file. A frame of another type where the HELLO is due gets the same typed
// error. Two rows are served, not refused: a REF whose hello announced
// nothing is a miss, and a SHORT is what a WANT is answered with. The frames
// of the retired stream multiplexing —
// CYCLE, STREAM, MUX_ACK — are refused as any frame out of place: by a server
// wherever it reads one, by a client where VERDICTS or a per-file frame is
// due. Every row runs from today's client ("bare") and from one whose HELLO
// asks for stream multiplexing ("mux"), which the server ignores.
func hostileHandshakes(t *testing.T) {
	v1, v2 := tinyTrees(12)
	for i := 0; i < 3; i++ { // unchanged files, so VERDICTS carries group sums
		p := fmt.Sprintf("same/f%d.txt", i)
		v1[p] = []byte(strings.Repeat(p, 40))
		v2[p] = v1[p]
	}
	for i := 0; i < 2; i++ { // new files, so VERDICTS carries a whole-content stream
		p := fmt.Sprintf("new/f%d.txt", i)
		v2[p] = []byte(strings.Repeat(p, 30+i))
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
		push    bool   // the connecting end pushes to a server that allows it
		wide    bool   // the holder also has a new file past segmentMax: its stream has two segments
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
		// A holder's config whose alternates would size the receiver's
		// candidate arena at 2⁴⁰ entries a block: in a pull the client, in a
		// push the server.
		{name: "client/VERDICTS config of 2^40 alternates", typ: wire.FrameVerdicts, rewrite: withAlternates(min(1<<40, math.MaxInt))},
		{name: "server/pushed VERDICTS config of 2^40 alternates", push: true, up: true, typ: wire.FrameVerdicts, rewrite: withAlternates(min(1<<40, math.MaxInt))},
		// Another frame where the one read is due is refused as one that
		// arrives out of place anywhere else: the HELLO.
		{name: "server/MANIFEST in place of HELLO", up: true, typ: wire.FrameHello, retype: wire.FrameManifest, payload: digest},
		// A HELLO this server cannot speak, and a verdict no holder sends.
		{name: "server/HELLO of version 2", up: true, typ: wire.FrameHello, rewrite: helloWith(0, 2)},
		{name: "server/HELLO of role 7", up: true, typ: wire.FrameHello, rewrite: helloWith(1, 7)},
		{name: "server/HELLO of mode 9", up: true, typ: wire.FrameHello, rewrite: helloWith(2, 9)},
		{name: "client/VERDICTS with an unknown verdict", typ: wire.FrameVerdicts, rewrite: unknownVerdict},
		// The retired multiplexed framing, as an older peer would send it:
		// a cycle count, a grant, a per-file frame wrapped for stream 0.
		{name: "server/CYCLE in place of HELLO", up: true, typ: wire.FrameHello, retype: wire.FrameCycle, payload: []byte{1}},
		{name: "server/MUX_ACK in place of MANIFEST_SHORT", up: true, typ: wire.FrameManifestShort, retype: wire.FrameMuxAck, payload: []byte{1, 12}},
		{name: "server/CYCLE in place of ROUND_REPLY", up: true, typ: wire.FrameRoundReply, retype: wire.FrameCycle, payload: []byte{1}},
		{name: "server/STREAM in place of ROUND_REPLY", up: true, typ: wire.FrameRoundReply, retype: wire.FrameStream, rewrite: inStream(wire.FrameRoundReply)},
		{name: "server/CYCLE in place of ACK after a REF hit", base: 1, up: true, typ: wire.FrameAck, retype: wire.FrameCycle, payload: []byte{1}, last: true},
		{name: "client/MUX_ACK in place of VERDICTS", typ: wire.FrameVerdicts, retype: wire.FrameMuxAck, payload: []byte{1, 12}},
		{name: "client/CYCLE in place of ROUND_HASHES", typ: wire.FrameRoundHashes, retype: wire.FrameCycle, payload: []byte{1}},
		{name: "client/STREAM in place of ROUND_HASHES", typ: wire.FrameRoundHashes, retype: wire.FrameStream, rewrite: inStream(wire.FrameRoundHashes)},
	}
	for name, rewrite := range hostileStreams {
		rows = append(rows, row{name: "client/VERDICTS stream " + name, typ: wire.FrameVerdicts, rewrite: rewrite, wide: true})
	}
	wide := maps.Clone(v2) // a compressible megabyte, sorted before the other new files
	wide["new/big.txt"] = bytes.Repeat([]byte("a file past segmentMax\n"), segmentMax/23+1)
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
		for _, mux := range []int{0, 4} {
			hello := "bare"
			if mux > 0 {
				hello = "mux"
			}
			t.Run(row.name+"/"+hello, func(t *testing.T) {
				// Not parallel: the allocation ceiling below reads the
				// process's allocation counter.
				held := v2
				if row.wide {
					held = wide
				}
				srv := versionedServer(t, v1, held, core.DefaultConfig())
				loads := &loadCounter{Source: srv.src}
				if row.typ == wire.FrameWant {
					srv.src = loads // a tree session needs no version store
				}
				cli := NewClient(v1)
				cli.TreeManifest = row.tree
				cli.AnnounceVersion, cli.BaseVersion = row.base > 0, row.base
				dial := cli.Sync
				if row.push {
					srv, dial = pushEnds(t, v1, v2, core.DefaultConfig())
				}

				var log bytes.Buffer
				srv.Logger = slog.New(slog.NewTextHandler(&log, nil))

				tp := newTamperProxy(row.up, row.typ, 0, row.payload, mux)
				tp.retype, tp.rewrite = row.retype, row.rewrite
				sc, res, victim, other := tp.run(t, srv, dial)
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

// withAlternates rewrites a VERDICTS payload: the same verdicts under the
// holder's config with MaxAlternates n.
func withAlternates(n int) func(real []byte) []byte {
	return func(real []byte) []byte {
		p := wire.NewParser(real)
		raw, err := p.Bytes()
		if err != nil {
			return real
		}
		cfg, g, err := decodeConfig(raw)
		if err != nil {
			return real
		}
		cfg.MaxAlternates = n
		rest, _ := p.Raw(p.Remaining())
		b := wire.NewBuffer(len(real) + 8)
		b.Bytes(encodeConfig(&cfg, g))
		b.Raw(rest)
		return b.Build()
	}
}

// pushEnds are a push's two ends under cfg: a server over old that allows
// pushes, and the session of a pusher holding cur.
func pushEnds(t *testing.T, old, cur map[string][]byte, cfg core.Config) (*Server, func(io.ReadWriter) (*Result, error)) {
	receiver, err := NewServer(old, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pusher, err := NewServer(cur, cfg)
	if err != nil {
		t.Fatal(err)
	}
	receiver.AllowPush = true
	return receiver, func(conn io.ReadWriter) (*Result, error) {
		_, err := pusher.PushContext(t.Context(), conn)
		return nil, err
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
	beforeRef := func(ft byte, _ []byte) string { // what a server said then
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
			if ft, _, err := fr.ReadFrame(); err != nil || ft != wire.FrameHello {
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
// 64 KB. A HELLO at the cap is read, and refused for what it says: version 0.
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
		capped := declared > maxHello
		want := "unsupported protocol version"
		if capped {
			want = "HELLO over"
		}
		if !errors.Is(err, core.ErrProtocol) || !strings.Contains(err.Error(), want) {
			t.Errorf("HELLO declaring %d bytes: %v, want a protocol error saying %q", declared, err, want)
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
			if err := fullHandler(1, 4000, []int{0}, hostileFullFrame(body)); !errors.Is(err, delta.ErrCorrupt) {
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
		{announce: 7, treeCaps: treeCapSpec | treeCapCross, mapMode: core.MapCDC},
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
	// Requests beyond what this implementation knows are cut down, and the
	// retired extension 2 is skipped: neither is refused.
	b := wire.NewBuffer(32)
	b.Uvarint(protocolVersion)
	b.Byte(rolePull)
	b.Byte(modeTree)
	helloExts{announce: -1, treeCaps: 0xFF}.encode(b)
	p := wire.NewParser(withMuxExt(b.Build(), wire.MaxStreams+5))
	p.Uvarint()
	p.Raw(2)
	if got := parseHelloExts(p); got != (helloExts{announce: -1, treeCaps: treeCapSpec | treeCapCross}) {
		t.Fatalf("unclamped hello: %+v", got)
	}
}
