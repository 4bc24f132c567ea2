package vcdiff

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"msync/internal/corpus"
	"msync/internal/delta"
)

func checkRoundTrip(t *testing.T, source, target []byte) {
	t.Helper()
	enc := Encode(source, target)
	got, err := Decode(source, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("round trip mismatch (%d vs %d bytes)", len(got), len(target))
	}
}

func TestRoundTripBasics(t *testing.T) {
	cases := []struct{ src, tgt string }{
		{"", ""},
		{"", "brand new"},
		{"old stuff", ""},
		{"identical content here", "identical content here"},
		{"hello world", "hello brave new world"},
		{"x", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}, // overlapping copy
		{"abcdefgh", "abcdefghabcdefghabcdefgh"},
	}
	for _, c := range cases {
		checkRoundTrip(t, []byte(c.src), []byte(c.tgt))
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(source, target []byte) bool {
		enc := Encode(source, target)
		got, err := Decode(source, enc)
		return err == nil && bytes.Equal(got, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripSimilar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := corpus.SourceText(rng, 2000+rng.Intn(10000))
		em := corpus.EditModel{BurstsPer32KB: 6, BurstEdits: 4, EditSize: 40, BurstSpread: 200}
		tgt := em.Apply(rng, src)
		enc := Encode(src, tgt)
		got, err := Decode(src, enc)
		return err == nil && bytes.Equal(got, tgt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderFormat(t *testing.T) {
	enc := Encode([]byte("source"), []byte("target"))
	if enc[0] != 0xD6 || enc[1] != 0xC3 || enc[2] != 0xC4 || enc[3] != 0x00 {
		t.Fatalf("bad magic/version: % x", enc[:4])
	}
	if enc[4] != 0 {
		t.Fatalf("hdr_indicator = %d", enc[4])
	}
	if enc[5]&vcdSource == 0 {
		t.Fatalf("win_indicator = %d, want VCD_SOURCE", enc[5])
	}
}

func TestDefaultTableLayout(t *testing.T) {
	// Spot-check the RFC 3284 §5.6 table landmarks.
	if defaultTable[0].type1 != typRun {
		t.Fatal("entry 0 must be RUN")
	}
	if e := defaultTable[1]; e.type1 != typAdd || e.size1 != 0 {
		t.Fatal("entry 1 must be ADD 0")
	}
	if e := defaultTable[18]; e.type1 != typAdd || e.size1 != 17 {
		t.Fatal("entry 18 must be ADD 17")
	}
	if e := defaultTable[19]; e.type1 != typCopy || e.size1 != 0 || e.mode1 != 0 {
		t.Fatal("entry 19 must be COPY 0 mode 0")
	}
	if e := defaultTable[35]; e.type1 != typCopy || e.size1 != 0 || e.mode1 != 1 {
		t.Fatalf("entry 35 must be COPY 0 mode 1, got %+v", e)
	}
	if e := defaultTable[163]; e.type1 != typAdd || e.size1 != 1 || e.type2 != typCopy || e.size2 != 4 || e.mode2 != 0 {
		t.Fatalf("entry 163 must be ADD1+COPY4m0, got %+v", e)
	}
	if e := defaultTable[255]; e.type1 != typCopy || e.size1 != 4 || e.mode1 != 8 || e.type2 != typAdd || e.size2 != 1 {
		t.Fatalf("entry 255 must be COPY4m8+ADD1, got %+v", e)
	}
}

func TestVarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 40} {
		enc := appendVarint(nil, v)
		got, rest, err := readVarint(enc)
		if err != nil || got != v || len(rest) != 0 {
			t.Fatalf("varint %d: got %d err %v", v, got, err)
		}
	}
	// RFC example: 123456789 encodes as 0xBA 0xEF 0x9A 0x15.
	enc := appendVarint(nil, 123456789)
	if !bytes.Equal(enc, []byte{0xBA, 0xEF, 0x9A, 0x15}) {
		t.Fatalf("RFC varint example: % x", enc)
	}
}

// TestDecodeRunInstruction: our encoder never emits RUN (runs become
// overlapping self-copies), but a conforming decoder must accept streams
// from encoders that do. Hand-craft one.
func TestDecodeRunInstruction(t *testing.T) {
	// Window body: target len 6, delta_indicator 0,
	// data: the run byte 'x' plus literals "ab",
	// inst: [RUN len=4][ADD len=2], addr: empty.
	inst := []byte{0}
	inst = appendVarint(inst, 4) // RUN size 0 -> explicit 4
	inst = append(inst, singleIndex[[3]byte{typAdd, 2, 0}])
	data := []byte{'x', 'a', 'b'}

	var body []byte
	body = appendVarint(body, 6) // target window length
	body = append(body, 0)       // delta_indicator
	body = appendVarint(body, uint64(len(data)))
	body = appendVarint(body, uint64(len(inst)))
	body = appendVarint(body, 0)
	body = append(body, data...)
	body = append(body, inst...)

	var win []byte
	win = append(win, 0) // win_indicator: no source
	win = appendVarint(win, uint64(len(body)))
	win = append(win, body...)

	enc := append(append([]byte(nil), magic...), 0)
	enc = append(enc, win...)

	got, err := Decode(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "xxxxab" {
		t.Fatalf("got %q", got)
	}
}

func TestDecodeCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := corpus.SourceText(rng, 4000)
	tgt := corpus.SourceText(rng, 4000)
	enc := Encode(src, tgt)
	failures := 0
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), enc...)
		switch trial % 2 {
		case 0:
			bad = bad[:rng.Intn(len(bad))]
		default:
			bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
		}
		if _, err := Decode(src, bad); err != nil {
			failures++
		}
	}
	if failures < 100 {
		t.Fatalf("only %d/200 corruptions detected", failures)
	}
	// Garbage input.
	if _, err := Decode(src, []byte("not a vcdiff stream")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(src, nil); err == nil {
		t.Fatal("empty accepted")
	}
}

// TestCompetitiveWithDelta: VCDIFF (no entropy stage) should be in the same
// ballpark as our Huffman-coded delta on similar files — a bit larger, far
// below the raw size.
func TestCompetitiveWithDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := corpus.SourceText(rng, 100_000)
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 60, BurstSpread: 300}
	tgt := em.Apply(rng, src)
	v := CompressedSize(src, tgt)
	d := len(delta.Encode(src, tgt))
	if v > len(tgt)/4 {
		t.Fatalf("vcdiff %d bytes for a lightly-edited %d-byte file", v, len(tgt))
	}
	t.Logf("vcdiff %d vs delta %d bytes (target %d)", v, d, len(tgt))
}

func BenchmarkEncode64K(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	src := corpus.SourceText(rng, 64<<10)
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 50, BurstSpread: 300}
	tgt := em.Apply(rng, src)
	b.SetBytes(int64(len(tgt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(src, tgt)
	}
}
