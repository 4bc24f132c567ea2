package collection

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// TestSegmentEnds pins the rule both ends cut the whole-content stream by: a
// segment closes before a file that would take it past segmentMax, so a
// longer file is a segment of its own — an empty file after it too — and an
// empty file after a segment at most segmentMax long joins it.
func TestSegmentEnds(t *testing.T) {
	const m = segmentMax
	for _, c := range []struct {
		lens []uint64
		ends []int
	}{
		{nil, nil},
		{[]uint64{0}, []int{1}},
		{[]uint64{10, 20, 30}, []int{3}},
		{[]uint64{m}, []int{1}},
		{[]uint64{m / 2, m / 2, 1}, []int{2, 3}},
		{[]uint64{m / 2, m/2 + 1}, []int{1, 2}},
		{[]uint64{1, 3 * m, 1, 0}, []int{1, 2, 4}},
		{[]uint64{maxWhole, maxWhole, 0}, []int{1, 2, 3}},
		{[]uint64{m, 0, 1}, []int{2, 3}},
	} {
		if got := segmentEnds(c.lens, segmentMax); !reflect.DeepEqual(got, c.ends) {
			t.Errorf("segmentEnds(%v) = %v, want %v", c.lens, got, c.ends)
		}
	}
}

// wholeAnswer is one holder answer to a pull whose receiver holds nothing of
// newFiles: its VERDICTS payload and the holder's whole-file bytes.
type wholeAnswer struct {
	verdicts []byte
	full     int64
}

// streamAndPerFile serves newFiles to today's receiver over oldFiles, which
// asks for the whole-content stream, and then replays that receiver's half
// with extension 5 taken out of its hello, as an older receiver's. The
// streaming client's result must be newFiles, each whole file its own full
// slice.
func streamAndPerFile(t *testing.T, oldFiles, newFiles map[string][]byte) (stream, perFile wholeAnswer) {
	t.Helper()
	srv, err := NewServer(newFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	rec := &recordConn{rw: b}
	costs := make(chan *stats.Costs, 1)
	go func() {
		defer a.Close()
		sc, _ := srv.Serve(a)
		costs <- sc
	}()
	res, err := NewClient(oldFiles).Sync(rec)
	b.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainst(res.Files, newFiles); err != nil {
		t.Fatal(err)
	}
	for path, data := range res.Files {
		if _, had := oldFiles[path]; !had && cap(data) != len(data) {
			t.Fatalf("%s: %d bytes in a slice of capacity %d: an append would write into the next file", path, len(data), cap(data))
		}
	}
	stream = wholeAnswer{verdictsOf(t, rec.s2c.Bytes()), (<-costs).Bytes(stats.S2C, stats.PhaseFull)}

	up := transcriptFrames(t, rec.c2s.Bytes())
	h := parseHelloExts(wire.NewParser(up[0].payload[3:]))
	if !h.stream {
		t.Fatal("today's receiver did not ask for the whole-content stream")
	}
	h.stream = false
	hb := wire.NewBuffer(16)
	hb.Raw(up[0].payload[:3])
	h.encode(hb)
	up[0].payload = hb.Build()
	conn := &recordingScript{}
	conn.script.Reset(wireBytes(t, up))
	sc, _ := srv.Serve(conn) // the script ends where the live session went on
	perFile = wholeAnswer{verdictsOf(t, conn.out.Bytes()), sc.Bytes(stats.S2C, stats.PhaseFull)}
	return stream, perFile
}

// verdictsOf is the VERDICTS payload of a holder's half of a session.
func verdictsOf(t *testing.T, down []byte) []byte {
	t.Helper()
	for _, f := range transcriptFrames(t, down) {
		if f.typ == wire.FrameVerdicts {
			return f.payload
		}
	}
	t.Fatal("the holder sent no VERDICTS")
	return nil
}

// TestWholeStreamCostsNoMore: the segment rule on two shapes of new content.
// Three heterogeneous 2 MB files — a log, a database dump and a VM image,
// each a segment of its own — cost no more whole-file bytes than compressed
// one by one; thirty 0.2–2 KB source files, one segment, cost strictly less.
// An older receiver, which did not ask, gets the same VERDICTS but for the
// layout: the config without the grant, each whole file compressed on its
// own in place of its length, no stream.
func TestWholeStreamCostsNoMore(t *testing.T) {
	big := map[string][]byte{}
	logs, dump, vm := corpus.DefaultHeavyLogProfile(1), corpus.DefaultDBDumpProfile(1), corpus.DefaultVMImageProfile(1)
	logs.Files, logs.MeanSize = 1, 2<<20
	dump.Files, dump.MeanSize = 1, 2<<20
	vm.Files, vm.MeanSize = 1, 2<<20
	for name, gen := range map[string]func(int64) (*corpus.Tree, *corpus.Tree){"log": logs.Generate, "dump": dump.Generate, "vm": vm.Generate} {
		_, v2 := gen(42)
		for _, data := range v2.Map() {
			big["big/"+name] = data[:min(len(data), 2<<20)]
		}
	}
	rng := rand.New(rand.NewSource(42))
	small := map[string][]byte{}
	for i := range 30 {
		small[fmt.Sprintf("src/f%02d.c", i)] = corpus.SourceText(rng, 200+rng.Intn(1800))
	}
	kept := map[string][]byte{"kept.txt": []byte("a file both ends hold")}
	for _, c := range []struct {
		name     string
		files    map[string][]byte
		segments int
		strictly bool
	}{
		{"three 2 MB files", big, 3, false},
		{"thirty small files", small, 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			newFiles := map[string][]byte{"kept.txt": kept["kept.txt"]}
			for p, d := range c.files {
				newFiles[p] = d
			}
			stream, perFile := streamAndPerFile(t, kept, newFiles)
			t.Logf("whole-file bytes: %d as a stream, %d one by one", stream.full, perFile.full)
			if stream.full > perFile.full || c.strictly && stream.full == perFile.full {
				t.Errorf("the stream costs %d whole-file bytes, compressed one by one %d", stream.full, perFile.full)
			}
			v, old := wholeOf(stream.verdicts), wholeOf(perFile.verdicts)
			if !v.stream || old.stream || len(segmentEnds(lengths(v.content), segmentMax)) != c.segments {
				t.Fatalf("stream %v in %d segments, want %d; older receiver's stream %v", v.stream, len(segmentEnds(lengths(v.content), segmentMax)), c.segments, old.stream)
			}
			if !reflect.DeepEqual(v.content, old.content) || !bytes.Equal(v.skeleton(), old.skeleton()) {
				t.Fatal("the older receiver's VERDICTS are not the stream's laid out file by file")
			}
		})
	}
}

// skeleton is the payload without its whole content — each whole file's
// field empty, no stream — and the grant cut from its config.
func (v verdictWhole) skeleton() []byte {
	p := wire.NewParser(v.real)
	raw, _ := p.Bytes()
	cfg, _, err := decodeConfig(raw)
	if err != nil {
		panic("whole_test: " + err.Error())
	}
	empty := make([][]byte, len(v.fields))
	for i := range empty {
		empty[i] = []byte{}
	}
	return append(lenPrefixed(encodeConfig(&cfg, grantNone)), v.build(empty, nil)[len(v.real)-p.Remaining():]...)
}

// lengths are the lengths of files.
func lengths(files [][]byte) []uint64 {
	out := make([]uint64, len(files))
	for i, f := range files {
		out[i] = uint64(len(f))
	}
	return out
}
