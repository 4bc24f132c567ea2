package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// bitLen is the total number of bits written to w so far.
func bitLen(w *Writer) int { return len(w.buf)*8 + int(w.nCur) }

func TestWriteReadRoundTrip(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFFFF, 16)
	w.WriteBit(true)
	w.WriteBits(0, 5)
	w.WriteBits(0xDEADBEEF, 32)
	r := NewReader(w.Bytes())

	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("got %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xFFFF {
		t.Fatalf("got %x", v)
	}
	if v, _ := r.ReadBit(); !v {
		t.Fatal("bit")
	}
	if v, _ := r.ReadBits(5); v != 0 {
		t.Fatalf("got %d", v)
	}
	if v, _ := r.ReadBits(32); v != 0xDEADBEEF {
		t.Fatalf("got %x", v)
	}
}

// TestQuickRoundTrip writes random-width values and reads them back.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%60) + 1
		type item struct {
			v    uint64
			bits uint
		}
		items := make([]item, count)
		w := &Writer{}
		for i := range items {
			bits := uint(rng.Intn(64) + 1)
			v := rng.Uint64()
			if bits < 64 {
				v &= (1 << bits) - 1
			}
			items[i] = item{v, bits}
			w.WriteBits(v, bits)
		}
		r := NewReader(w.Bytes())
		for _, it := range items {
			got, err := r.ReadBits(it.bits)
			if err != nil || got != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0xFF, 4) // only low 4 bits should land
	r := NewReader(w.Bytes())
	v, _ := r.ReadBits(4)
	if v != 0xF {
		t.Fatalf("got %x", v)
	}
}

func TestZeroWidth(t *testing.T) {
	w := &Writer{}
	w.WriteBits(123, 0)
	if bitLen(w) != 0 {
		t.Fatalf("BitLen = %d", bitLen(w))
	}
	r := NewReader(nil)
	if v, err := r.ReadBits(0); err != nil || v != 0 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(9); err != ErrOverflow {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
	// The failed read must not consume anything usable incorrectly.
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("8-bit read after failed 9-bit read: %v", err)
	}
}

func TestWriteBytesAlignedAndUnaligned(t *testing.T) {
	payload := []byte{1, 2, 3, 250}
	// Aligned.
	w := &Writer{}
	w.WriteBytes(payload)
	if !bytes.Equal(w.Bytes(), payload) {
		t.Fatalf("aligned: %v", w.Bytes())
	}
	// Unaligned.
	w = &Writer{}
	w.WriteBits(1, 1)
	w.WriteBytes(payload)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBits(1); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBytes(len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("unaligned: %v err=%v", got, err)
	}
}

func TestAlign(t *testing.T) {
	w := &Writer{}
	w.WriteBits(1, 3)
	w.Align()
	if bitLen(w) != 8 {
		t.Fatalf("BitLen = %d", bitLen(w))
	}
	w.Align() // idempotent at a boundary
	if bitLen(w) != 8 {
		t.Fatalf("BitLen after second Align = %d", bitLen(w))
	}
	w.WriteBytes([]byte{0x42})
	r := NewReader(w.Bytes())
	r.ReadBits(3)
	r.Align()
	b, err := r.ReadBytes(1)
	if err != nil || b[0] != 0x42 {
		t.Fatalf("b=%v err=%v", b, err)
	}
}

func TestLenAndBitLen(t *testing.T) {
	w := &Writer{}
	if len(w.Bytes()) != 0 {
		t.Fatal("empty Len")
	}
	w.WriteBits(0, 9)
	if len(w.Bytes()) != 2 || bitLen(w) != 9 {
		t.Fatalf("Len=%d BitLen=%d", len(w.Bytes()), bitLen(w))
	}
}

func TestReset(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0xFFFF, 13)
	w.Reset()
	if bitLen(w) != 0 || len(w.Bytes()) != 0 {
		t.Fatal("reset did not clear")
	}
	w.WriteBits(0b1, 1)
	if w.Bytes()[0] != 0x80 {
		t.Fatalf("got %x", w.Bytes())
	}
}

func TestBytesDoesNotFinalize(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0b1, 1)
	_ = w.Bytes() // snapshot with padding
	w.WriteBits(0b1, 1)
	r := NewReader(w.Bytes())
	v, _ := r.ReadBits(2)
	if v != 0b11 {
		t.Fatalf("got %b, want 11", v)
	}
}

func TestBitsRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0, 0})
	if r.BitsRemaining() != 24 {
		t.Fatal("initial")
	}
	r.ReadBits(5)
	if r.BitsRemaining() != 19 {
		t.Fatalf("got %d", r.BitsRemaining())
	}
}

func TestReadBytesErrors(t *testing.T) {
	r := NewReader([]byte{1, 2})
	if _, err := r.ReadBytes(3); err != ErrOverflow {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.ReadBytes(-1); err == nil {
		t.Fatal("negative count accepted")
	}
}
