package md4

// The block function exactly as it stood before it was unrolled (commit
// 0d144fb): three 16-step loops with table-driven shifts and message indexes.
// Frozen here as the reference the differential test compares block against;
// do not "tidy" it.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

var refShift1 = [...]uint{3, 7, 11, 19}
var refShift2 = [...]uint{3, 5, 9, 13}
var refShift3 = [...]uint{3, 9, 11, 15}

var refXIndex2 = [...]uint{0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15}
var refXIndex3 = [...]uint{0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15}

func refBlock(s *[4]uint32, p []byte) {
	a, b, c, dd := s[0], s[1], s[2], s[3]
	var x [16]uint32
	for i := 0; i < 16; i++ {
		x[i] = binary.LittleEndian.Uint32(p[i*4:])
	}

	// Round 1: F(x,y,z) = (x & y) | (~x & z)
	for i := uint(0); i < 16; i++ {
		xi := x[i]
		s := refShift1[i%4]
		f := (b & c) | (^b & dd)
		a += f + xi
		a = a<<s | a>>(32-s)
		a, b, c, dd = dd, a, b, c
	}

	// Round 2: G(x,y,z) = (x & y) | (x & z) | (y & z), +0x5A827999
	for i := uint(0); i < 16; i++ {
		xi := x[refXIndex2[i]]
		s := refShift2[i%4]
		g := (b & c) | (b & dd) | (c & dd)
		a += g + xi + 0x5A827999
		a = a<<s | a>>(32-s)
		a, b, c, dd = dd, a, b, c
	}

	// Round 3: H(x,y,z) = x ^ y ^ z, +0x6ED9EBA1
	for i := uint(0); i < 16; i++ {
		xi := x[refXIndex3[i]]
		s := refShift3[i%4]
		h := b ^ c ^ dd
		a += h + xi + 0x6ED9EBA1
		a = a<<s | a>>(32-s)
		a, b, c, dd = dd, a, b, c
	}

	s[0] += a
	s[1] += b
	s[2] += c
	s[3] += dd
}

// refSum is Sum over refBlock: RFC 1320 padding, then the state little endian.
func refSum(data []byte) [Size]byte {
	s := [4]uint32{init0, init1, init2, init3}
	msg := append([]byte(nil), data...)
	msg = append(msg, 0x80)
	for len(msg)%BlockSize != 56 {
		msg = append(msg, 0)
	}
	msg = binary.LittleEndian.AppendUint64(msg, uint64(len(data))<<3)
	for ; len(msg) > 0; msg = msg[BlockSize:] {
		refBlock(&s, msg[:BlockSize])
	}
	var out [Size]byte
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// TestSumMatchesReference holds the unrolled block to the looped one on every
// length 0–4 KiB's worth of random inputs, one-shot and split at a random
// point (so a block straddling two Writes is covered).
func TestSumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1320))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, rng.Intn(4097))
		rng.Read(data)
		want := refSum(data)
		if got := Sum(data); got != want {
			t.Fatalf("len %d: Sum %x, reference %x", len(data), got, want)
		}
		h := New()
		cut := rng.Intn(len(data) + 1)
		h.Write(data[:cut])
		h.Write(data[cut:])
		if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
			t.Fatalf("len %d split at %d: %x, reference %x", len(data), cut, got, want)
		}
	}
}
