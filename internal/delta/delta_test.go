package delta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"msync/internal/alloctest"
	"msync/internal/bitio"
	"msync/internal/corpus"
)

func checkRoundTrip(t *testing.T, ref, target []byte) {
	t.Helper()
	enc := Encode(ref, target)
	got, err := Decode(ref, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(target))
	}
}

func TestRoundTripBasics(t *testing.T) {
	cases := []struct{ ref, target string }{
		{"", ""},
		{"", "hello"},
		{"hello", ""},
		{"hello world", "hello world"},
		{"hello world", "hello brave new world"},
		{"abcabcabc", "abcabcabcabcabc"},
		{"x", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}, // overlapping self-copy
		{"the quick brown fox", "the quick red fox jumped"},
	}
	for i, c := range cases {
		t.Run("", func(t *testing.T) {
			checkRoundTrip(t, []byte(c.ref), []byte(c.target))
			_ = i
		})
	}
}

func TestQuickRoundTripRandom(t *testing.T) {
	f := func(ref, target []byte) bool {
		enc := Encode(ref, target)
		got, err := Decode(ref, enc)
		return err == nil && bytes.Equal(got, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRoundTripSimilar exercises the realistic case: target is an
// edited version of ref.
func TestQuickRoundTripSimilar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := corpus.SourceText(rng, 2000+rng.Intn(8000))
		em := corpus.EditModel{BurstsPer32KB: 8, BurstEdits: 4, EditSize: 30, BurstSpread: 200}
		target := em.Apply(rng, ref)
		enc := Encode(ref, target)
		got, err := Decode(ref, enc)
		return err == nil && bytes.Equal(got, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCompressionEffective: a small edit to a large file must produce a
// delta far smaller than the file.
func TestCompressionEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := corpus.SourceText(rng, 100_000)
	target := append([]byte(nil), ref...)
	copy(target[50_000:], []byte("THIS PART WAS EDITED"))
	enc := Encode(ref, target)
	if len(enc) > 600 {
		t.Fatalf("delta of a 20-byte edit is %d bytes", len(enc))
	}
	// Self-compression of structured text should also beat raw size.
	comp := Compress(ref)
	if len(comp) > len(ref)/2 {
		t.Fatalf("self-compression: %d of %d bytes", len(comp), len(ref))
	}
}

// TestDeltaBeatsSelfCompression: with a similar reference available, the
// delta must be much smaller than compressing the target alone.
func TestDeltaBeatsSelfCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := corpus.SourceText(rng, 60_000)
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 3, EditSize: 40, BurstSpread: 200}
	target := em.Apply(rng, ref)
	d := len(Encode(ref, target))
	s := len(Compress(target))
	if d*5 > s {
		t.Fatalf("delta %d not clearly smaller than self-compression %d", d, s)
	}
}

// TestStoredFallbackBoundsExpansion: random (incompressible) data must not
// expand beyond the stored-mode header.
func TestStoredFallbackBoundsExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 10, 1000, 100_000} {
		data := corpus.RandomText(rng, n)
		enc := Compress(data)
		if len(enc) > n+12 {
			t.Fatalf("size %d: compressed to %d (expansion beyond header)", n, len(enc))
		}
		got, err := Decompress(enc)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("size %d: round trip failed: %v", n, err)
		}
	}
}

func TestDecodeRejectsUnknownMode(t *testing.T) {
	bad := []byte{5, 99, 1, 2, 3, 4, 5} // len 5, mode 99
	if _, err := Decode(nil, bad); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := Decode(nil, []byte{5}); err == nil {
		t.Fatal("missing mode byte accepted")
	}
}

func TestCompressDecompress(t *testing.T) {
	f := func(data []byte) bool {
		got, err := Decompress(Compress(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionDetected: random corruption must error, never return wrong
// data silently... except payload-only bit flips that survive decoding; we
// only require no panics and (mostly) errors.
func TestCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := corpus.SourceText(rng, 5000)
	target := corpus.SourceText(rng, 5000)
	enc := Encode(ref, target)
	errors := 0
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), enc...)
		switch trial % 3 {
		case 0: // truncate
			bad = bad[:rng.Intn(len(bad))]
		case 1: // flip a bit
			bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
		default: // garbage tail
			bad = append(bad, byte(rng.Intn(256)))
		}
		got, err := Decode(ref, bad)
		if err != nil {
			errors++
			continue
		}
		// Silent success must at least not corrupt memory; equality to the
		// target is possible for the appended-garbage case.
		_ = got
	}
	if errors < 100 {
		t.Fatalf("only %d/200 corruptions detected", errors)
	}
}

func TestDecodeRejectsBadRefCopies(t *testing.T) {
	// Deltas against a different (shorter) reference must fail cleanly.
	rng := rand.New(rand.NewSource(6))
	ref := corpus.SourceText(rng, 8000)
	target := append(append([]byte(nil), ref[:4000]...), corpus.SourceText(rng, 100)...)
	enc := Encode(ref, target)
	if _, err := Decode(ref[:100], enc); err == nil {
		t.Fatal("decode against truncated reference succeeded")
	}
}

func TestImplausibleLength(t *testing.T) {
	// A corrupt header with an absurd target length must be rejected before
	// allocation.
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := Decode(nil, bad); err == nil {
		t.Fatal("implausible length accepted")
	}
}

// hostileStream is twelve bytes that decode as far as the allocation: a
// declared target of 4 GiB, the entropy-coded mode, two empty code tables.
func hostileStream() []byte {
	enc := binary.AppendUvarint(nil, 1<<32)
	return append(enc, modeHuffman, 0, 0, 0, 0, 0, 0)
}

// hostileDecoding declares 4 GiB like hostileStream, in at most 32 bytes, but
// decodes in mode m: valid code tables, a thousand bytes of output, then the
// end of the block.
func hostileDecoding(m Mode) []byte {
	enc := m.Compress(bytes.Repeat([]byte("a"), 1000))
	_, n := binary.Uvarint(enc)
	return append(binary.AppendUvarint(nil, 1<<32), enc[n:]...)
}

// TestDecodeAllocatesWhatOpsProduce: a caller that cannot know the target
// length (a verdict's whole file, a store blob) pays for the output the
// stream's ops produce, not for the length it declares; a stream that
// compresses no better than 64:1 gets its exact buffer as before, and one
// that does still decodes.
func TestDecodeAllocatesWhatOpsProduce(t *testing.T) {
	for _, m := range []Mode{Mode0, Mode2} {
		hostile := hostileDecoding(m)
		if len(hostile) > 32 {
			t.Fatalf("mode %d: hostile stream is %d bytes", m, len(hostile))
		}
		got := alloctest.BytesPerOp(5, func() {
			if _, err := Decompress(hostile); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mode %d: Decompress of %d bytes declaring 4 GiB: %v, want ErrCorrupt", m, len(hostile), err)
			}
		})
		if got >= 64<<10 {
			t.Errorf("mode %d: the hostile stream cost %d B, ceiling %d", m, got, 64<<10)
		}
	}

	text := bytes.Repeat([]byte("not all that compressible: 0123456789 abcdefghij\n"), 40)
	rand.New(rand.NewSource(1)).Shuffle(len(text), func(i, j int) { text[i], text[j] = text[j], text[i] })
	out, err := Decompress(Compress(text))
	if err != nil || !bytes.Equal(out, text) || cap(out) != len(text) {
		t.Fatalf("honest stream: err %v, %d bytes in a buffer of %d, want exactly %d", err, len(out), cap(out), len(text))
	}
	run := bytes.Repeat([]byte("a"), 1<<20)
	enc := Compress(run)
	if 64*len(enc)+4096 >= len(run) {
		t.Fatalf("a megabyte run compressed to %d bytes: not past the preallocation bound", len(enc))
	}
	if out, err := Decompress(enc); err != nil || !bytes.Equal(out, run) {
		t.Fatalf("a stream compressing better than 64:1 no longer decodes: %v", err)
	}
}

// TestDecodeLenChecksBeforeAllocating: a stream whose declared length is not
// the one the caller expects is corrupt, and costs nothing to find so.
func TestDecodeLenChecksBeforeAllocating(t *testing.T) {
	hostile := hostileStream()
	if len(hostile) != 12 {
		t.Fatalf("hostile stream is %d bytes", len(hostile))
	}
	got := alloctest.BytesPerOp(5, func() {
		if _, err := DecodeLen(nil, hostile, 1000); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeLen of a stream declaring 4 GiB where 1000 B are expected: %v, want ErrCorrupt", err)
		}
	})
	if got >= 64<<10 {
		t.Errorf("the hostile stream cost %d B, ceiling %d", got, 64<<10)
	}
	// Mode 2's hostile streams: each is corrupt to Decode and to DecodeLen
	// expecting 1000 bytes, for no more than the output bound allocates.
	for name, enc := range hostileStreams2() {
		got := alloctest.BytesPerOp(5, func() {
			if _, err := Decode(nil, enc); err == nil {
				t.Fatalf("%s: Decode accepted it", name)
			}
			if _, err := DecodeLen(nil, enc, 1000); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: DecodeLen: %v, want ErrCorrupt", name, err)
			}
		})
		if got >= 64<<10 {
			t.Errorf("%s cost %d B, ceiling %d", name, got, 64<<10)
		}
	}

	ref := []byte("the reference content with some repeated repeated text")
	target := []byte("the reference content, edited with repeated text")
	for _, enc := range [][]byte{Mode0.Encode(ref, target), Mode0.Encode(nil, target), Mode0.Encode(ref, nil),
		Encode(ref, target), Encode(nil, target), Encode(ref, nil)} {
		want, err := Decode(ref, enc)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeLen(ref, enc, len(want)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("DecodeLen with the right length: %q, %v", got, err)
		}
		for _, n := range []int{len(want) + 1, len(want) - 1, -1, min(1<<40, math.MaxInt)} {
			if _, err := DecodeLen(ref, enc, n); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeLen expecting %d of a %d-byte target: %v, want ErrCorrupt", n, len(want), err)
			}
		}
	}
}

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int{0, 1, 7, 8, 9, 15, 16, 100, 1000, 1 << 20, 1<<30 + 12345} {
		code, nb, ev := bucket(uint64(v))
		w := &bitio.Writer{}
		w.WriteBits(ev, nb)
		r := bitio.NewReader(w.Bytes())
		got, err := unbucket(code, r)
		if err != nil || got != uint64(v) {
			t.Fatalf("bucket(%d): got %d err %v", v, got, err)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int{0, 1, -1, 2, -2, 1 << 30, -(1 << 30)} {
		if unzigzag(zigzag(v)) != v {
			t.Fatalf("zigzag(%d)", v)
		}
		if zigzag(v) < 0 {
			t.Fatalf("zigzag(%d) negative", v)
		}
	}
}

func TestMatchLen(t *testing.T) {
	a := []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaab")
	b := []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
	if got := matchLen(a, b, 100); got != 30 {
		t.Fatalf("matchLen = %d, want 30", got)
	}
	if got := matchLen(a, b, 10); got != 10 {
		t.Fatalf("capped matchLen = %d, want 10", got)
	}
	if got := matchLen(nil, b, 10); got != 0 {
		t.Fatalf("empty matchLen = %d", got)
	}
}

func BenchmarkEncodeSimilar64K(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ref := corpus.SourceText(rng, 64<<10)
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 50, BurstSpread: 300}
	target := em.Apply(rng, ref)
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(ref, target)
	}
}

func BenchmarkDecode64K(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ref := corpus.SourceText(rng, 64<<10)
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 50, BurstSpread: 300}
	target := em.Apply(rng, ref)
	enc := Encode(ref, target)
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(ref, enc); err != nil {
			b.Fatal(err)
		}
	}
}
