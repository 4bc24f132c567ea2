package collection

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/merkle"
	"msync/internal/wire"
)

// FuzzManifestDecode: arbitrary manifest bytes must never panic, as MANIFEST,
// as MANIFEST_PACKED or as MANIFEST_SHORT. The packed decoder refuses them with
// errPacked or returns at most one entry per sum width — 16 bytes, or 3 — for
// no more than a small multiple of the input.
func FuzzManifestDecode(f *testing.F) {
	f.Add(encodeManifest(BuildManifest(map[string][]byte{"a/b": []byte("x")})))
	f.Add([]byte{0xFF})
	v1, _ := tinyTrees(12)
	packed, _ := packManifest(BuildManifest(v1), md4.Size)
	f.Add(packed)
	for _, p := range sortedPayloads(hostilePacked(md4.Size)) {
		f.Add(p)
	}
	short, _ := packManifest(BuildManifest(v1), shortSum)
	f.Add(short)
	for _, p := range sortedPayloads(hostilePacked(shortSum)) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err == nil && len(m) > 1<<20 {
			t.Fatal("implausible manifest size")
		}
		for _, width := range []int{md4.Size, shortSum} {
			got := alloctest.BytesPerOp(2, func() { m, err = unpackManifest(data, width) })
			if ceiling := uint64(4<<10 + 64*len(data)); got > ceiling {
				t.Fatalf("%d bytes allocated for a %d-byte payload at width %d (ceiling %d)", got, len(data), width, ceiling)
			}
			if err != nil && !errors.Is(err, errPacked) || err == nil && len(m) > len(data)/width {
				t.Fatalf("%d entries from %d bytes at width %d: %v", len(m), len(data), width, err)
			}
		}
	})
}

// sortedPayloads lists a map's payloads in key order, so a seed keeps its
// number from run to run.
func sortedPayloads(m map[string][]byte) [][]byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// FuzzConfigDecode: arbitrary config bytes must never panic and only yield
// validated configurations.
func FuzzConfigDecode(f *testing.F) {
	cfg := core.DefaultConfig()
	f.Add(encodeConfig(&cfg, grantNone))
	f.Add([]byte{1, 2, 3})
	cfg.MaxAlternates = min(1<<40, math.MaxInt) // 1<<40 where int holds it
	f.Add(encodeConfig(&cfg, grantNone))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, _, err := decodeConfig(data)
		if err == nil {
			if verr := c.Validate(); verr != nil {
				t.Fatalf("decode accepted invalid config: %v", verr)
			}
		}
	})
}

// FuzzSessionFrames: arbitrary bytes in the peer-controlled lists of a running
// session — the index lists of ROUND_HASHES, CONFIRM, ROUND_REPLY, ACK and
// FULL, and the hello's extension trailer — never panic, never yield a list
// longer than the stream or out of order, and never allocate more than a small
// multiple of the payload, however many files the session has. A list that
// parses is also handed to the FULL handler as the answer to an ACK of exactly
// its ordinals: whatever the content streams declare, decoding costs what the
// verdicts announced. And the same bytes are the payload of each of the
// handshake's two fixed-size frames, sent where it is legal: a MANIFEST_REF of
// anything but 16 bytes and a MANIFEST_WANT of anything but none are the
// protocol error errFrame, and the legal size gets as far as the script's end;
// the bytes as a MANIFEST_PACKED or MANIFEST_SHORT payload are errPacked
// exactly when unpackManifest refuses them at that width, and as the WANT after
// a tree-mode TREE query a protocol error exactly when resolveWant refuses them
// against the holder's files. As a MANIFEST_TABLE in the receiver's first
// flight they are a protocol error exactly when filelist.ParseTable refuses
// them or leaves bytes after the table; answering a MANIFEST_WANT, or as a
// second MANIFEST_WANT, any table and any WANT is one. As what follows a
// HELLO's type byte, a declared length past maxHello is a protocol error that
// costs the server under 64 KB; as a VERDICTS whose config decodeConfig
// refuses, one that costs the client under 64 KB. As a whole file's length
// they are refused past maxWhole, and as the whole-content stream of as many
// 64-byte files as the list has room for, a missing segment or one declaring
// another length than its files' sum is refused before anything is decoded.
// As a DELTA frame in the stream layout for up to 64 files that mapped
// nothing, they are applied or refused as a protocol error, cheaply.
func FuzzSessionFrames(f *testing.F) {
	f.Add(make([]byte, md4.Size), uint32(2), false) // a MANIFEST_REF's payload
	f.Add([]byte{}, uint32(2), false)               // a MANIFEST_WANT's
	f.Add(make([]byte, md4.Size+1), uint32(2), false)
	old, cur := tinyTrees(2)
	srv, err := NewServer(cur, core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	cli := NewClient(old)
	cli.AnnounceVersion, cli.BaseVersion = true, 1
	refHello := wire.NewBuffer(16)
	refHello.Uvarint(protocolVersion)
	refHello.Byte(rolePull)
	refHello.Byte(modeManifest)
	plainHello := append([]byte(nil), refHello.Build()...)
	helloExts{announce: 1}.encode(refHello)
	handshake := func(t *testing.T, frames []wireFrame, sized bool, run func(*scriptConn) error) {
		conn := &scriptConn{}
		conn.script.Reset(wireBytes(t, frames))
		if err := run(conn); errors.Is(err, core.ErrProtocol) == sized || err == nil {
			t.Fatalf("%s of %d bytes: %v", wire.FrameName(frames[len(frames)-1].typ), len(frames[len(frames)-1].payload), err)
		}
	}
	f.Add(hostileFullFrame(hostileFull), uint32(12), true)
	f.Add(hostileFullFrame(hostileDecoding), uint32(12), true)
	for _, bodies := range []bool{true, false} {
		for _, p := range hostileLists(bodies) {
			if len(p) <= 1024 {
				f.Add(p, uint32(12), bodies)
				f.Add(p, uint32(1<<20), bodies)
			}
		}
	}
	hb := wire.NewBuffer(32)
	hb.Uvarint(protocolVersion)
	hb.Byte(rolePull)
	hb.Byte(modeManifest)
	helloExts{announce: 7, treeCaps: treeCapSpec, mapMode: core.MapCDC}.encode(hb)
	trailer := wire.NewParser(withMuxExt(hb.Build(), 16)) // the retired extension 2 among them
	trailer.Uvarint()
	trailer.Raw(2)
	exts, _ := trailer.Raw(trailer.Remaining())
	f.Add(exts, uint32(0), false)
	packed, _ := packManifest(BuildManifest(old), md4.Size)
	f.Add(packed, uint32(2), false) // a MANIFEST_PACKED's
	for _, p := range sortedPayloads(hostilePacked(md4.Size)) {
		f.Add(p, uint32(2), false)
	}
	short, _ := packManifest(BuildManifest(old), shortSum)
	f.Add(short, uint32(2), false) // a MANIFEST_SHORT's
	// A tree-mode receiver's script: its first TREE query, then a WANT.
	treeHello := wire.NewBuffer(16)
	treeHello.Uvarint(protocolVersion)
	treeHello.Byte(rolePull)
	treeHello.Byte(modeTree)
	m := BuildManifest(old)
	treeQuery := merkle.NewInitiator(merkle.NewTreeCache(m, ManifestDigest(m)).Tree(merkle.DepthFor(len(m)))).Next()
	f.Add(wantPayload(wantHave, "dir/f000.txt", "dir/f001.txt"), uint32(2), false) // a WANT's
	for _, p := range sortedPayloads(hostileWants()) {
		f.Add(p, uint32(2), false)
	}
	f.Add(append(wire.AppendUvarint(nil, maxHello+1), 1, 0, 0), uint32(0), false) // an oversized HELLO's header
	table, _ := tableOf(BuildManifest(old))
	f.Add(table, uint32(2), false)                                                       // a MANIFEST_TABLE's
	f.Add(append(wire.AppendUvarint(nil, 1<<26), make([]byte, 38)...), uint32(2), false) // one of 2²⁶ cells in 42 bytes
	hostileCfg := core.DefaultConfig()
	hostileCfg.MaxAlternates = min(1<<40, math.MaxInt) // 1<<40 where int holds it
	vb := wire.NewBuffer(64)
	vb.Bytes(encodeConfig(&hostileCfg, grantNone))
	f.Add(vb.Build(), uint32(2), false) // a VERDICTS whose config declares 2⁴⁰ alternates
	// A whole-content stream of two 64-byte files: as sent, then declaring
	// 4 GiB, a byte more than its files' sum, missing, with a byte after it;
	// and a length past maxWhole.
	twoFiles := delta.Compress(bytes.Repeat([]byte("whole content "), 10)[:128])
	for _, p := range [][]byte{
		lenPrefixed(twoFiles),
		lenPrefixed(hostileDecoding),
		lenPrefixed(append(wire.AppendUvarint(nil, 129), twoFiles[1:]...)),
		{},
		append(lenPrefixed(twoFiles), 0),
		wire.AppendUvarint(nil, maxWhole+1),
	} {
		f.Add(p, uint32(2), false)
	}
	// A DELTA frame in the stream layout for two 64-byte files: as sent, and
	// as each hostile rewrite.
	twoDeltas := deltaStreamFor([][]byte{bytes.Repeat([]byte("a"), 64), bytes.Repeat([]byte("b"), 64)})
	f.Add(twoDeltas, uint32(2), false)
	for _, name := range []string{"segment missing", "bytes after the last segment", "segment declares another length", "segment declares 4 GiB"} {
		f.Add(hostileDeltaStreams[name].rewrite(twoDeltas), uint32(2), false)
	}
	serve := func(c *scriptConn) error { _, err := srv.Serve(c); return err }
	f.Fuzz(func(t *testing.T, data []byte, nFiles uint32, bodies bool) {
		n := int(nFiles % (1 << 24))
		var secs []section
		var err error
		got := alloctest.BytesPerOp(2, func() {
			secs, err = parseSections(data, n, bodies)
			parseHelloExts(wire.NewParser(data))
		})
		if ceiling := uint64(4<<10 + 64*len(data)); got > ceiling {
			t.Fatalf("%d bytes allocated for a %d-byte payload (ceiling %d)", got, len(data), ceiling)
		}
		handshake(t, []wireFrame{{wire.FrameHello, refHello.Build()}, {wire.FrameManifestRef, data}}, len(data) == md4.Size,
			func(c *scriptConn) error { _, err := srv.Serve(c); return err })
		handshake(t, []wireFrame{{wire.FrameManifestWant, data}}, len(data) == 0,
			func(c *scriptConn) error { _, err := cli.Sync(c); return err })
		for ft, width := range map[byte]int{wire.FrameManifestPacked: md4.Size, wire.FrameManifestShort: shortSum} {
			_, unpackErr := unpackManifest(data, width)
			handshake(t, []wireFrame{{wire.FrameHello, plainHello}, {ft, data}}, unpackErr == nil,
				func(c *scriptConn) error { _, err := srv.Serve(c); return err })
		}
		if size, k := binary.Uvarint(data); k > 0 && size > maxHello {
			conn, script := &scriptConn{}, append([]byte{wire.FrameHello}, data...)
			got := alloctest.BytesPerOp(16, func() { // sixteen: see hostileHandshakes
				conn.script.Reset(script)
				if _, err := srv.Serve(conn); !errors.Is(err, core.ErrProtocol) {
					t.Fatalf("HELLO declaring %d bytes: %v", size, err)
				}
			})
			if got >= 64<<10 {
				t.Fatalf("HELLO declaring %d bytes cost %d B", size, got)
			}
		}
		if raw, err := wire.NewParser(data).Bytes(); err == nil {
			if _, _, cfgErr := decodeConfig(raw); cfgErr != nil {
				conn, script := &scriptConn{}, wireBytes(t, []wireFrame{{wire.FrameVerdicts, data}})
				got := alloctest.BytesPerOp(16, func() { // sixteen: see hostileHandshakes
					conn.script.Reset(script)
					if _, err := cli.Sync(conn); !errors.Is(err, core.ErrProtocol) {
						t.Fatalf("VERDICTS with a config decodeConfig refuses (%v): %v", cfgErr, err)
					}
				})
				if got >= 64<<10 {
					t.Fatalf("VERDICTS with a refused config cost %d B", got)
				}
			}
		}
		tp := wire.NewParser(data)
		_, tableErr := filelist.ParseTable(tp)
		handshake(t, []wireFrame{{wire.FrameHello, plainHello}, {wire.FrameManifestTable, data}}, tableErr == nil && tp.Remaining() == 0, serve)
		handshake(t, []wireFrame{{wire.FrameHello, refHello.Build()}, {wire.FrameManifestRef, make([]byte, md4.Size)}, {wire.FrameManifestTable, data}}, false, serve)
		handshake(t, []wireFrame{{wire.FrameManifestWant, data}, {wire.FrameManifestWant, nil}}, false,
			func(c *scriptConn) error { _, err := cli.Sync(c); return err })
		_, _, wantErr := resolveWant(data, BuildManifest(cur))
		handshake(t, []wireFrame{{wire.FrameHello, treeHello.Build()}, {wire.FrameTree, treeQuery}, {wire.FrameWant, data}}, wantErr == nil,
			func(c *scriptConn) error { _, err := srv.Serve(c); return err })
		// As a whole file's announced length: refused past maxWhole. As the
		// stream of n 64-byte files: a segment missing or declaring another
		// length than its files' sum is refused before any is decoded, and
		// one that declares it costs its code tables, whatever it declares.
		ws := wholeStream{}
		if lerr := ws.announce(wire.NewParser(data), "f"); lerr != nil && !errors.Is(lerr, core.ErrProtocol) {
			t.Fatalf("length refused with %v", lerr)
		} else if l, k := binary.Uvarint(data); (k > 0 && l <= maxWhole) != (lerr == nil) {
			t.Fatalf("length %d: %v", l, lerr)
		}
		if n <= 1<<10 {
			ws = wholeStream{paths: make([]string, n), lens: make([]uint64, n)}
			for i := range ws.lens {
				ws.lens[i] = 64
			}
			files := map[string][]byte{}
			got = alloctest.BytesPerOp(2, func() {
				ws.ends, ws.segs = nil, nil
				if _, err := ws.read(wire.NewParser(data)); err == nil {
					ws.decode(files)
				} else if !errors.Is(err, core.ErrProtocol) {
					t.Fatalf("stream refused with %v", err)
				}
			})
			if ceiling := uint64(24<<10 + 128*n); got > ceiling {
				t.Fatalf("a stream of %d 64-byte files allocated %d bytes (ceiling %d)", n, got, ceiling)
			}
		}
		// As a DELTA frame in the stream layout to n engines that mapped
		// nothing of their 64-byte files: accepted, or refused as a protocol
		// error, for the segment's code tables at most.
		if n > 0 && n <= 64 {
			cs := deltaHandler(t, n, 64)
			got = alloctest.BytesPerOp(2, func() {
				if _, _, err := cs.handle(1, wire.FrameDelta, data); err != nil && !errors.Is(err, core.ErrProtocol) {
					t.Fatalf("DELTA stream refused with %v", err)
				}
			})
			if ceiling := uint64(24<<10 + 256*n); got > ceiling {
				t.Fatalf("a DELTA stream for %d 64-byte files allocated %d bytes (ceiling %d)", n, got, ceiling)
			}
		}
		if err != nil {
			return
		}
		if len(secs) > n {
			t.Fatalf("%d entries for %d files", len(secs), n)
		}
		failed := make([]int, len(secs))
		for k, s := range secs {
			if s.idx < 0 || s.idx >= n || (k > 0 && s.idx <= secs[k-1].idx) {
				t.Fatalf("entry %d: index %d out of range or order", k, s.idx)
			}
			failed[k] = s.idx
		}
		if !bodies || n > 1<<10 {
			return
		}
		// 64-byte files: a section that declares 64 and decodes costs its code
		// tables (under 4 KB), any other is refused before it costs anything.
		got = alloctest.BytesPerOp(2, func() { fullHandler(n, 64, failed, data) })
		if ceiling := uint64(8<<10 + 128*n + 16<<10*len(secs)); got > ceiling {
			t.Fatalf("FULL handler allocated %d bytes for %d sections of %d files (ceiling %d)", got, len(secs), n, ceiling)
		}
	})
}
