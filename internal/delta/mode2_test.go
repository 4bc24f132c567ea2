package delta

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"msync/internal/bitio"
	"msync/internal/corpus"
)

// modeOf is the mode byte of enc.
func modeOf(enc []byte) byte {
	_, n := binary.Uvarint(enc)
	return enc[n]
}

// TestMode2RoundTrip: every corpus, edge and index pair decodes from its
// mode-2 encoding, which is mode 2 or stored; Mode2 is Encode, and Mode0
// writes mode 0 or stored.
func TestMode2RoundTrip(t *testing.T) {
	for _, p := range append(append(corpusPairs(), edgePairs()...), indexPairs()...) {
		enc := Mode2.Encode(p.ref, p.target)
		if m := modeOf(enc); m != mode2 && m != modeStored {
			t.Fatalf("%s: Mode2 wrote mode %d", p.name, m)
		}
		got, err := DecodeLen(p.ref, enc, len(p.target))
		if err != nil || !bytes.Equal(got, p.target) {
			t.Fatalf("%s (ref %d B, target %d B): mode-2 round trip: %v", p.name, len(p.ref), len(p.target), err)
		}
		if !bytes.Equal(enc, Encode(p.ref, p.target)) {
			t.Fatalf("%s: Mode2.Encode is not Encode", p.name)
		}
		enc0 := Mode0.Encode(p.ref, p.target)
		if m := modeOf(enc0); m != modeHuffman && m != modeStored {
			t.Fatalf("%s: Mode0 wrote mode %d", p.name, m)
		}
		if got, err := DecodeLen(p.ref, enc0, len(p.target)); err != nil || !bytes.Equal(got, p.target) {
			t.Fatalf("%s (ref %d B, target %d B): mode-0 round trip: %v", p.name, len(p.ref), len(p.target), err)
		}
	}
}

// TestMode2NeverLarger: on the gcc-like, emacs-like, DB dump and heavy log
// generators, mode 2 is never larger than mode 0, pair by pair and for the
// profile's new files compressed as one whole-content stream.
func TestMode2NeverLarger(t *testing.T) {
	const seed = 42
	profiles := []struct {
		name   string
		v1, v2 *corpus.Tree
	}{}
	add := func(name string, v1, v2 *corpus.Tree) {
		profiles = append(profiles, struct {
			name   string
			v1, v2 *corpus.Tree
		}{name, v1, v2})
	}
	v1, v2 := corpus.GCCProfile(0.2).Generate(seed)
	add("gcc", v1, v2)
	v1, v2 = corpus.EmacsProfile(0.2).Generate(seed)
	add("emacs", v1, v2)
	v1, v2 = corpus.DefaultDBDumpProfile(0.2).Generate(seed)
	add("dbdump", v1, v2)
	v1, v2 = corpus.DefaultHeavyLogProfile(0.2).Generate(seed)
	add("heavylog", v1, v2)
	for _, pr := range profiles {
		var sum0, sum2 int
		var stream []byte
		for _, p := range treePairs(pr.name, pr.v1, pr.v2) {
			n0, n2 := len(Mode0.Encode(p.ref, p.target)), len(Mode2.Encode(p.ref, p.target))
			if n2 > n0 {
				t.Errorf("%s (ref %d B, target %d B): mode 2 is %d bytes, mode 0 %d", p.name, len(p.ref), len(p.target), n2, n0)
			}
			sum0, sum2 = sum0+n0, sum2+n2
			stream = append(stream, p.target...)
		}
		s0, s2 := len(Mode0.Compress(stream)), len(Mode2.Compress(stream))
		if s2 > s0 {
			t.Errorf("%s: the %d-byte stream is %d bytes in mode 2, %d in mode 0", pr.name, len(stream), s2, s0)
		}
		t.Logf("%s: pairs %d -> %d B, stream %d -> %d B", pr.name, sum0, sum2, s0, s2)
	}
}

// TestMode2Tables: a target too small to pay for tables gets the built-in
// code, a large one its own tables, and both decode.
func TestMode2Tables(t *testing.T) {
	small := []byte("a short note: the built-in code carries it.\n")
	large := bytes.Repeat(corpus.SourceText(rand.New(rand.NewSource(3)), 4000), 2)
	for _, c := range []struct {
		target  []byte
		dynamic bool
	}{{small, false}, {large, true}} {
		enc := Mode2.Compress(c.target)
		_, n := binary.Uvarint(enc)
		if enc[n] != mode2 {
			t.Fatalf("%d-byte target: mode %d", len(c.target), enc[n])
		}
		if dynamic := enc[n+1]&0x80 != 0; dynamic != c.dynamic {
			t.Fatalf("%d-byte target: dynamic tables %v, want %v", len(c.target), dynamic, c.dynamic)
		}
		if got, err := Decompress(enc); err != nil || !bytes.Equal(got, c.target) {
			t.Fatalf("%d-byte target: round trip: %v", len(c.target), err)
		}
	}
}

// TestMode2RepDistances: a target that alternates between two distances
// codes most of its copies as reps and round-trips.
func TestMode2RepDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := corpus.SourceText(rng, 64), corpus.SourceText(rng, 64)
	var target []byte
	for i := 0; i < 50; i++ {
		target = append(target, a[:40]...)
		target = append(target, byte('0'+i%10), byte('a'+i%26))
		target = append(target, b[:40]...)
		target = append(target, byte('A'+i%26), byte('0'+i%7))
	}
	m := acquire(nil, target)
	copies := m.parse2()
	var rp reps
	repCopies := 0
	for _, c := range copies {
		if c.src < 0 && rp.selfKind(-int(c.src)) >= kindRep0 {
			repCopies++
		}
	}
	m.release()
	if repCopies < len(copies)/2 {
		t.Fatalf("%d of %d copies at a rep distance", repCopies, len(copies))
	}
	if got, err := Decompress(Mode2.Compress(target)); err != nil || !bytes.Equal(got, target) {
		t.Fatalf("round trip: %v", err)
	}
}

// TestSelfCopy: a self copy appends what a byte-by-byte copy would, whether
// its source ends before it starts (one slice copy) or overlaps it (the last
// dist bytes repeated).
func TestSelfCopy(t *testing.T) {
	base := []byte("0123456789")
	for dist := 1; dist <= len(base); dist++ {
		for length := 1; length <= 3*len(base); length++ {
			want := append([]byte(nil), base...)
			for k := 0; k < length; k++ {
				want = append(want, want[len(base)-dist+k])
			}
			// Capacity to spare: an in-place slice copy over the overlap
			// would read bytes it has just written.
			out := make([]byte, len(base), 4*len(base))
			copy(out, base)
			if got := selfCopy(out, dist, length); !bytes.Equal(got, want) {
				t.Fatalf("dist %d, length %d: %q, want %q", dist, length, got[len(base):], want[len(base):])
			}
		}
	}
	run := append([]byte("xy"), bytes.Repeat([]byte("xy"), 500)...)
	for _, enc := range [][]byte{Mode0.Compress(run), Mode2.Compress(run)} {
		if got, err := Decompress(enc); err != nil || !bytes.Equal(got, run) {
			t.Fatalf("mode %d: an overlapping copy of distance 2: %v", modeOf(enc), err)
		}
	}
}

// op2 writes mode-2 copy ops in the built-in code.
type op2 struct{ w *bitio.Writer }

func (o op2) literal(b byte) { mustEncode(builtin2.main, o.w, int(b)) }

// copy writes a copy of kind and length (MinMatch..MinMatch+7); a self copy's
// distance follows.
func (o op2) copy(kind, length, dist int) {
	mustEncode(builtin2.main, o.w, symCopyBase+kind*numLen2+length-MinMatch)
	if kind == kindSelf {
		dc, nb, ev := bucket2(uint64(dist - 1))
		mustEncode(builtin2.self, o.w, dc)
		o.w.WriteBits(ev, nb)
	}
}

// hostile2 is a mode-2 stream declaring declared bytes, in the built-in code,
// with the ops ops writes.
func hostile2(declared uint64, ops func(op2)) []byte {
	w := bitio.NewWriter(32)
	w.WriteBytes(binary.AppendUvarint(nil, declared))
	w.WriteBytes([]byte{mode2})
	w.WriteBit(false)
	ops(op2{w})
	return w.Bytes()
}

// hostileStreams2 are mode-2 streams a decoder must refuse: a rep used before
// any distance exists, a rep index past the distances that do, a self
// distance reaching past the output (which would become a rep), the largest
// distance the alphabet codes, and 4 GiB declared over a handful of ops.
func hostileStreams2() map[string][]byte {
	return map[string][]byte{
		"rep-before-any-distance": hostile2(1000, func(o op2) { o.copy(kindRep0, 4, 0) }),
		"rep-index-unset": hostile2(1000, func(o op2) {
			for _, b := range []byte("abcd") {
				o.literal(b)
			}
			o.copy(kindSelf, 4, 4)
			o.copy(kindRep0+2, 4, 0)
		}),
		"distance-past-output": hostile2(1000, func(o op2) {
			o.literal('a')
			o.literal('b')
			o.copy(kindSelf, 4, 900)
			o.copy(kindRep0, 4, 0)
		}),
		"distance-code-at-the-top": hostile2(1000, func(o op2) {
			o.literal('a')
			mustEncode(builtin2.main, o.w, symCopyBase+kindSelf*numLen2)
			mustEncode(builtin2.self, o.w, numDist2-1)
			o.w.WriteBits(1<<30-1, 30)
		}),
		"4GiB-few-ops": hostile2(1<<32, func(o op2) {
			o.literal('a')
			o.copy(kindSelf, 11, 1)
			o.copy(kindRep0, 11, 0)
		}),
	}
}
