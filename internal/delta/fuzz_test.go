package delta

import (
	"bytes"
	"testing"
)

// FuzzDecode: arbitrary bytes must never panic the decoder, and valid
// encodings must round-trip.
func FuzzDecode(f *testing.F) {
	ref := []byte("the reference content with some repeated repeated text")
	f.Add(ref, Mode0.Encode(ref, []byte("the reference content, edited with repeated text")))
	f.Add([]byte{}, Mode0.Encode(nil, []byte("self-compressed payload payload payload")))
	f.Add(ref, []byte{})
	f.Add(ref, []byte{0xFF, 0xFF, 0xFF})
	f.Add([]byte{}, hostileStream())
	f.Add([]byte{}, hostileDecoding(Mode0))
	// Mode 2: built-in and dynamic tables, and its hostile streams.
	f.Add(ref, Mode2.Encode(ref, []byte("the reference content, edited with repeated text")))
	f.Add([]byte{}, Mode2.Compress(bytes.Repeat([]byte("self-compressed payload, mode 2 "), 40)))
	f.Add([]byte{}, hostileDecoding(Mode2))
	for _, enc := range hostileStreams2() {
		f.Add([]byte{}, enc)
	}
	f.Fuzz(func(t *testing.T, refIn, enc []byte) {
		out, err := Decode(refIn, enc)
		if err == nil && len(out) > 1<<24 {
			t.Fatalf("implausible output size %d", len(out))
		}
	})
}

// FuzzEncodeDecode: every (ref, target) pair must round-trip exactly, in
// both modes.
func FuzzEncodeDecode(f *testing.F) {
	f.Add([]byte("reference"), []byte("target based on reference"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte("aaaa"), bytes.Repeat([]byte("a"), 300))
	f.Add([]byte{}, bytes.Repeat([]byte("abcab"), 200))
	f.Fuzz(func(t *testing.T, ref, target []byte) {
		if len(ref) > 1<<16 || len(target) > 1<<16 {
			t.Skip()
		}
		for _, m := range []Mode{Mode0, Mode2} {
			got, err := Decode(ref, m.Encode(ref, target))
			if err != nil {
				t.Fatalf("mode %d: decode: %v", m, err)
			}
			if !bytes.Equal(got, target) {
				t.Fatalf("mode %d: round trip mismatch", m)
			}
		}
	})
}

// FuzzEncodeMatchesReference: on any (ref, target) pair the pooled
// match-finder emits exactly what the frozen per-call encoder emits. The
// fuzzer's inputs arrive in arbitrary order on shared scratch, which is the
// point.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add([]byte("reference"), []byte("target based on reference"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte("abc"), []byte("abc"))
	f.Add([]byte("aaaa"), bytes.Repeat([]byte("a"), 300))
	f.Add([]byte{}, bytes.Repeat([]byte("self referential "), 40))
	for _, p := range indexPairs() {
		if len(p.ref) <= 1<<16 && len(p.target) <= 1<<16 {
			f.Add(p.ref, p.target)
		}
	}
	f.Fuzz(func(t *testing.T, ref, target []byte) {
		if len(ref) > 1<<16 || len(target) > 1<<16 {
			t.Skip()
		}
		if got, want := Mode0.Encode(ref, target), refEncode(ref, target); !bytes.Equal(got, want) {
			t.Fatalf("Mode0.Encode differs from the reference encoder: %d vs %d bytes", len(got), len(want))
		}
	})
}
