package collection

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/md4"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// deltaStreamParts takes a DELTA payload in the stream layout apart: its
// count and headers, as they are, and its segments.
func deltaStreamParts(real []byte) (head []byte, segs [][]byte) {
	p := wire.NewParser(real)
	n, err := p.Uvarint()
	for ; err == nil && n > 0; n-- {
		_, err = p.Bytes()
	}
	head = real[:len(real)-p.Remaining()]
	for err == nil && p.Remaining() > 0 {
		var seg []byte
		if seg, err = p.Bytes(); err == nil {
			segs = append(segs, seg)
		}
	}
	if err != nil {
		panic("deltastream_test: the session's DELTA frame does not parse: " + err.Error())
	}
	return head, segs
}

// withSegments is head followed by segs.
func withSegments(head []byte, segs ...[]byte) []byte {
	return append(slices.Clip(head), streamOf(segs...)...)
}

// hostileDeltaStreams rewrite a DELTA payload in the stream layout, one per
// check the receiver makes before it decodes a segment. The declared-length
// rows also carry delta.ErrCorrupt.
var hostileDeltaStreams = map[string]struct {
	rewrite  func(real []byte) []byte
	declares bool
}{
	// The stream without its last segment.
	"segment missing": {rewrite: func(real []byte) []byte {
		head, segs := deltaStreamParts(real)
		return withSegments(head, segs[:len(segs)-1]...)
	}},
	// A byte after the last segment.
	"bytes after the last segment": {rewrite: func(real []byte) []byte {
		return append(slices.Clip(real), 0)
	}},
	// The last segment declares a byte more than its files' gaps.
	"segment declares another length": {declares: true, rewrite: func(real []byte) []byte {
		head, segs := deltaStreamParts(real)
		last := segs[len(segs)-1]
		declared, k := binary.Uvarint(last)
		segs[len(segs)-1] = append(wire.AppendUvarint(nil, declared+1), last[k:]...)
		return withSegments(head, segs...)
	}},
	// The last segment is hostileDecoding: 4 GiB declared in 26 bytes.
	"segment declares 4 GiB": {declares: true, rewrite: func(real []byte) []byte {
		head, segs := deltaStreamParts(real)
		segs[len(segs)-1] = hostileDecoding
		return withSegments(head, segs...)
	}},
}

// deltaHandler is a receiving stream of n engines that mapped nothing of
// their newLen-byte files, granted the delta stream: every byte of each file
// is a gap, and no confirm bit is pending.
func deltaHandler(t testing.TB, n, newLen int) *clientStream {
	cfg := core.DefaultConfig()
	cs := &clientStream{files: make([]clientFile, n), nEng: n, buf: wire.NewBuffer(64), deltaStream: true}
	for i := range cs.files {
		eng, err := core.NewClientFile(nil, newLen, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs.files[i] = clientFile{path: fmt.Sprintf("f%d", i), newLen: newLen, engine: eng}
	}
	return cs
}

// deltaStreamFor is the DELTA payload in the stream layout that sends files,
// each the same length, to deltaHandler's receiver.
func deltaStreamFor(files [][]byte) []byte {
	b := wire.NewBuffer(64)
	b.Uvarint(uint64(len(files)))
	lens := make([]uint64, len(files))
	for i, f := range files {
		sum := md4.Sum(f)
		b.Bytes(sum[:])
		lens[i] = uint64(len(f))
	}
	lo := 0
	for _, hi := range segmentEnds(lens, deltaSegmentMax) {
		b.Bytes(delta.Compress(bytes.Join(files[lo:hi], nil)))
		lo = hi
	}
	return b.Build()
}

// TestDeltaStreamRefusedCheaply: each hostile rewrite of a DELTA frame in the
// stream layout is core.ErrProtocol at its receiver before any segment is
// decoded, for less than 64 KB; the frame as sent rebuilds every file.
func TestDeltaStreamRefusedCheaply(t *testing.T) {
	files := make([][]byte, 12)
	for i := range files {
		files[i] = bytes.Repeat([]byte(fmt.Sprintf("file %d, ", i)), 200)[:1600]
	}
	real := deltaStreamFor(files)
	cs := deltaHandler(t, len(files), 1600)
	if _, _, err := cs.handle(1, wire.FrameDelta, real); err != nil || len(cs.failed) > 0 {
		t.Fatalf("the frame as sent: %v, %d files failed", err, len(cs.failed))
	}
	for i, f := range files {
		if !bytes.Equal(cs.results[i], f) {
			t.Fatalf("file %d rebuilt wrong", i)
		}
	}
	for name, h := range hostileDeltaStreams {
		t.Run(name, func(t *testing.T) {
			payload := h.rewrite(real)
			cs := deltaHandler(t, len(files), 1600)
			got := alloctest.BytesPerOp(5, func() {
				_, _, err := cs.handle(1, wire.FrameDelta, payload)
				if !errors.Is(err, core.ErrProtocol) || h.declares != errors.Is(err, delta.ErrCorrupt) {
					t.Fatalf("%v: want core.ErrProtocol, delta.ErrCorrupt %v", err, h.declares)
				}
			})
			if got >= 64<<10 {
				t.Errorf("refusing the frame cost %d B, ceiling %d", got, 64<<10)
			}
		})
	}
}

// TestFalseMatchSpreadsInSegment: under hashes weak enough that false matches
// pass verification (weakConfig), a file's wrong covered bytes are part of
// the reference its segment's neighbours are coded against, and a neighbour
// whose gap copies from them fails its own whole-file check. Every failure
// comes back in FULL: the files converge byte for byte, and FilesFull on both
// ends counts each. The receiver of the same pull without the delta stream
// (its HELLO stripped of extension 7) fails a strict subset of those files:
// its own false matches.
func TestFalseMatchSpreadsInSegment(t *testing.T) {
	v1, v2 := tinyTrees(12)
	failed := map[bool][]int{}
	for _, stream := range []bool{false, true} {
		srv, err := NewServer(v2, weakConfig())
		if err != nil {
			t.Fatal(err)
		}
		a, b := transport.Pipe()
		rec := &recordConn{rw: b}
		var conn io.ReadWriter = rec
		if !stream {
			conn = &withoutExts{ReadWriter: rec, strip: withoutDeltaStream}
		}
		var wg sync.WaitGroup
		var sc *stats.Costs
		var srvErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer a.Close()
			sc, srvErr = srv.Serve(a)
		}()
		res, err := NewClient(v1).Sync(conn)
		b.Close()
		wg.Wait()
		if err != nil || srvErr != nil {
			t.Fatalf("stream %v: client %v, server %v", stream, err, srvErr)
		}
		if err := VerifyAgainst(res.Files, v2); err != nil {
			t.Fatalf("stream %v: %v", stream, err)
		}
		for _, f := range transcriptFrames(t, rec.c2s.Bytes()) {
			if f.typ == wire.FrameAck {
				secs, err := parseSections(f.payload, len(v2), false)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range secs {
					failed[stream] = append(failed[stream], s.idx)
				}
			}
		}
		if res.Costs.FilesFull != len(failed[stream]) || sc.FilesFull != len(failed[stream]) {
			t.Fatalf("stream %v: FilesFull %d (client), %d (server), the ACK listed %d", stream, res.Costs.FilesFull, sc.FilesFull, len(failed[stream]))
		}
	}
	own, all := failed[false], failed[true]
	if len(own) == 0 || len(all) <= len(own) {
		t.Fatalf("%d files failed file by file, %d in shared segments: want some, and more in segments", len(own), len(all))
	}
	for _, i := range own {
		if !slices.Contains(all, i) {
			t.Fatalf("file %d failed file by file but not in its segment", i)
		}
	}
}
