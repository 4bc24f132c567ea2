// Package bitio implements bit-level readers and writers used to pack
// k-bit hash values and bitmaps onto the wire.
//
// Bits are written most-significant-first within each byte, which keeps the
// encoded stream independent of host endianness and makes truncated hash
// prefixes contiguous on the wire.
package bitio

import (
	"errors"
	"fmt"
)

// ErrOverflow is returned when a read runs past the end of the input.
var ErrOverflow = errors.New("bitio: read past end of input")

// Writer accumulates bits into a byte slice. The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  byte // partially filled byte
	nCur uint // number of bits currently in cur (0..7)
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits n=%d out of range", n))
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	for n > 0 {
		free := 8 - w.nCur
		if n <= free {
			w.cur |= byte(v << (free - n))
			w.nCur += n
			if w.nCur == 8 {
				w.buf = append(w.buf, w.cur)
				w.cur, w.nCur = 0, 0
			}
			return
		}
		// Fill the current byte with the top `free` bits of the remaining value.
		w.cur |= byte(v >> (n - free))
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
		n -= free
	}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// WriteBytes appends whole bytes (bit-aligned or not).
func (w *Writer) WriteBytes(p []byte) {
	if w.nCur == 0 {
		w.buf = append(w.buf, p...)
		return
	}
	for _, b := range p {
		w.WriteBits(uint64(b), 8)
	}
}

// Align pads with zero bits to the next byte boundary.
func (w *Writer) Align() {
	if w.nCur > 0 {
		w.WriteBits(0, 8-w.nCur)
	}
}

// Bytes returns the encoded bytes, padding the final partial byte with zeros.
// The Writer remains usable; further writes continue from the unpadded state.
func (w *Writer) Bytes() []byte {
	if w.nCur == 0 {
		out := make([]byte, len(w.buf))
		copy(out, w.buf)
		return out
	}
	out := make([]byte, len(w.buf)+1)
	copy(out, w.buf)
	out[len(w.buf)] = w.cur
	return out
}

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nCur = 0, 0
}

// Reader consumes bits from a byte slice.
type Reader struct {
	buf []byte
	pos uint // bit position from the start
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// ReadBits reads n bits (most significant first) and returns them in the low
// bits of the result. n must be in [0, 64].
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits n=%d out of range", n))
	}
	if r.pos+n > uint(len(r.buf))*8 {
		return 0, ErrOverflow
	}
	var v uint64
	remaining := n
	for remaining > 0 {
		byteIdx := r.pos / 8
		bitOff := r.pos % 8
		avail := 8 - bitOff
		take := remaining
		if take > avail {
			take = avail
		}
		chunk := uint64(r.buf[byteIdx]>>(avail-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		r.pos += take
		remaining -= take
	}
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// ReadBytes reads n whole bytes.
func (r *Reader) ReadBytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitio: ReadBytes n=%d", n)
	}
	if r.pos%8 == 0 {
		start := int(r.pos / 8)
		if start+n > len(r.buf) {
			return nil, ErrOverflow
		}
		out := make([]byte, n)
		copy(out, r.buf[start:start+n])
		r.pos += uint(n) * 8
		return out, nil
	}
	out := make([]byte, n)
	for i := range out {
		v, err := r.ReadBits(8)
		if err != nil {
			return nil, err
		}
		out[i] = byte(v)
	}
	return out, nil
}

// Align advances the read position to the next byte boundary.
func (r *Reader) Align() {
	if rem := r.pos % 8; rem != 0 {
		r.pos += 8 - rem
	}
}

// BitsRemaining reports how many bits are left to read.
func (r *Reader) BitsRemaining() int { return len(r.buf)*8 - int(r.pos) }
