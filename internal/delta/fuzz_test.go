package delta

import (
	"bytes"
	"testing"
)

// FuzzDecode: arbitrary bytes must never panic the decoder, and valid
// encodings must round-trip.
func FuzzDecode(f *testing.F) {
	ref := []byte("the reference content with some repeated repeated text")
	f.Add(ref, Encode(ref, []byte("the reference content, edited with repeated text")))
	f.Add([]byte{}, Encode(nil, []byte("self-compressed payload payload payload")))
	f.Add(ref, []byte{})
	f.Add(ref, []byte{0xFF, 0xFF, 0xFF})
	f.Add([]byte{}, hostileStream())
	f.Add([]byte{}, hostileDecoding())
	f.Fuzz(func(t *testing.T, refIn, enc []byte) {
		out, err := Decode(refIn, enc)
		if err == nil && len(out) > 1<<24 {
			t.Fatalf("implausible output size %d", len(out))
		}
	})
}

// FuzzEncodeDecode: every (ref, target) pair must round-trip exactly.
func FuzzEncodeDecode(f *testing.F) {
	f.Add([]byte("reference"), []byte("target based on reference"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte("aaaa"), bytes.Repeat([]byte("a"), 300))
	f.Fuzz(func(t *testing.T, ref, target []byte) {
		if len(ref) > 1<<16 || len(target) > 1<<16 {
			t.Skip()
		}
		got, err := Decode(ref, Encode(ref, target))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(got, target) {
			t.Fatal("round trip mismatch")
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
		if got, want := Encode(ref, target), refEncode(ref, target); !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from the reference encoder: %d vs %d bytes", len(got), len(want))
		}
	})
}
