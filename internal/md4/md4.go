// Package md4 implements the MD4 hash algorithm as defined in RFC 1320.
//
// MD4 is cryptographically broken and is implemented here solely because the
// rsync algorithm this repository reproduces as a baseline uses MD4 as its
// strong block checksum (Tridgell/MacKerras), and MD4 is not available in the
// Go standard library. Do not use it for security purposes.
package md4

import (
	"encoding/binary"
	"hash"
	"math/bits"
)

// Size is the size of an MD4 checksum in bytes.
const Size = 16

// BlockSize is the block size of MD4 in bytes.
const BlockSize = 64

const (
	init0 = 0x67452301
	init1 = 0xEFCDAB89
	init2 = 0x98BADCFE
	init3 = 0x10325476
)

type digest struct {
	s   [4]uint32
	x   [BlockSize]byte
	nx  int
	len uint64
}

// New returns a new hash.Hash computing the MD4 checksum.
func New() hash.Hash {
	d := new(digest)
	d.Reset()
	return d
}

func (d *digest) Reset() {
	d.s[0], d.s[1], d.s[2], d.s[3] = init0, init1, init2, init3
	d.nx = 0
	d.len = 0
}

func (d *digest) Size() int { return Size }

func (d *digest) BlockSize() int { return BlockSize }

func (d *digest) Write(p []byte) (n int, err error) {
	n = len(p)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		if d.nx == BlockSize {
			block(d, d.x[:])
			d.nx = 0
		}
		p = p[c:]
	}
	for len(p) >= BlockSize {
		block(d, p[:BlockSize])
		p = p[BlockSize:]
	}
	if len(p) > 0 {
		d.nx = copy(d.x[:], p)
	}
	return n, nil
}

func (d *digest) Sum(in []byte) []byte {
	// Make a copy so callers can keep writing.
	d0 := *d
	h := d0.checkSum()
	return append(in, h[:]...)
}

func (d *digest) checkSum() [Size]byte {
	// Padding: append 0x80, then zeros, then the bit length (little endian).
	length := d.len
	var tmp [64]byte
	tmp[0] = 0x80
	if length%64 < 56 {
		d.Write(tmp[0 : 56-length%64])
	} else {
		d.Write(tmp[0 : 64+56-length%64])
	}
	length <<= 3
	binary.LittleEndian.PutUint64(tmp[:8], length)
	d.Write(tmp[:8])

	if d.nx != 0 {
		panic("md4: internal error: non-empty buffer after padding")
	}

	var out [Size]byte
	for i, v := range d.s {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// Sum returns the MD4 checksum of data.
func Sum(data []byte) [Size]byte {
	var d digest
	d.Reset()
	d.Write(data)
	return d.checkSum()
}

// block folds one 64-byte block of p into the state: the 48 steps of RFC 1320
// written out, so every rotate count and message index is a constant.
func block(dg *digest, p []byte) {
	p = p[:BlockSize]
	a, b, c, d := dg.s[0], dg.s[1], dg.s[2], dg.s[3]
	x0 := binary.LittleEndian.Uint32(p[0:])
	x1 := binary.LittleEndian.Uint32(p[4:])
	x2 := binary.LittleEndian.Uint32(p[8:])
	x3 := binary.LittleEndian.Uint32(p[12:])
	x4 := binary.LittleEndian.Uint32(p[16:])
	x5 := binary.LittleEndian.Uint32(p[20:])
	x6 := binary.LittleEndian.Uint32(p[24:])
	x7 := binary.LittleEndian.Uint32(p[28:])
	x8 := binary.LittleEndian.Uint32(p[32:])
	x9 := binary.LittleEndian.Uint32(p[36:])
	x10 := binary.LittleEndian.Uint32(p[40:])
	x11 := binary.LittleEndian.Uint32(p[44:])
	x12 := binary.LittleEndian.Uint32(p[48:])
	x13 := binary.LittleEndian.Uint32(p[52:])
	x14 := binary.LittleEndian.Uint32(p[56:])
	x15 := binary.LittleEndian.Uint32(p[60:])

	// Round 1: F(x,y,z) = (x & y) | (^x & z), as ((y ^ z) & x) ^ z so that only
	// two operations wait for the newest word
	a = bits.RotateLeft32(a+(((c^d)&b)^d)+x0, 3)
	d = bits.RotateLeft32(d+(((b^c)&a)^c)+x1, 7)
	c = bits.RotateLeft32(c+(((a^b)&d)^b)+x2, 11)
	b = bits.RotateLeft32(b+(((d^a)&c)^a)+x3, 19)
	a = bits.RotateLeft32(a+(((c^d)&b)^d)+x4, 3)
	d = bits.RotateLeft32(d+(((b^c)&a)^c)+x5, 7)
	c = bits.RotateLeft32(c+(((a^b)&d)^b)+x6, 11)
	b = bits.RotateLeft32(b+(((d^a)&c)^a)+x7, 19)
	a = bits.RotateLeft32(a+(((c^d)&b)^d)+x8, 3)
	d = bits.RotateLeft32(d+(((b^c)&a)^c)+x9, 7)
	c = bits.RotateLeft32(c+(((a^b)&d)^b)+x10, 11)
	b = bits.RotateLeft32(b+(((d^a)&c)^a)+x11, 19)
	a = bits.RotateLeft32(a+(((c^d)&b)^d)+x12, 3)
	d = bits.RotateLeft32(d+(((b^c)&a)^c)+x13, 7)
	c = bits.RotateLeft32(c+(((a^b)&d)^b)+x14, 11)
	b = bits.RotateLeft32(b+(((d^a)&c)^a)+x15, 19)

	// Round 2: G(x,y,z) = (x & y) | (x & z) | (y & z), as (x & (y | z)) | (y & z),
	// +0x5A827999
	a = bits.RotateLeft32(a+((b&(c|d))|(c&d))+x0+0x5A827999, 3)
	d = bits.RotateLeft32(d+((a&(b|c))|(b&c))+x4+0x5A827999, 5)
	c = bits.RotateLeft32(c+((d&(a|b))|(a&b))+x8+0x5A827999, 9)
	b = bits.RotateLeft32(b+((c&(d|a))|(d&a))+x12+0x5A827999, 13)
	a = bits.RotateLeft32(a+((b&(c|d))|(c&d))+x1+0x5A827999, 3)
	d = bits.RotateLeft32(d+((a&(b|c))|(b&c))+x5+0x5A827999, 5)
	c = bits.RotateLeft32(c+((d&(a|b))|(a&b))+x9+0x5A827999, 9)
	b = bits.RotateLeft32(b+((c&(d|a))|(d&a))+x13+0x5A827999, 13)
	a = bits.RotateLeft32(a+((b&(c|d))|(c&d))+x2+0x5A827999, 3)
	d = bits.RotateLeft32(d+((a&(b|c))|(b&c))+x6+0x5A827999, 5)
	c = bits.RotateLeft32(c+((d&(a|b))|(a&b))+x10+0x5A827999, 9)
	b = bits.RotateLeft32(b+((c&(d|a))|(d&a))+x14+0x5A827999, 13)
	a = bits.RotateLeft32(a+((b&(c|d))|(c&d))+x3+0x5A827999, 3)
	d = bits.RotateLeft32(d+((a&(b|c))|(b&c))+x7+0x5A827999, 5)
	c = bits.RotateLeft32(c+((d&(a|b))|(a&b))+x11+0x5A827999, 9)
	b = bits.RotateLeft32(b+((c&(d|a))|(d&a))+x15+0x5A827999, 13)

	// Round 3: H(x,y,z) = x ^ y ^ z, +0x6ED9EBA1
	a = bits.RotateLeft32(a+(b^c^d)+x0+0x6ED9EBA1, 3)
	d = bits.RotateLeft32(d+(a^b^c)+x8+0x6ED9EBA1, 9)
	c = bits.RotateLeft32(c+(d^a^b)+x4+0x6ED9EBA1, 11)
	b = bits.RotateLeft32(b+(c^d^a)+x12+0x6ED9EBA1, 15)
	a = bits.RotateLeft32(a+(b^c^d)+x2+0x6ED9EBA1, 3)
	d = bits.RotateLeft32(d+(a^b^c)+x10+0x6ED9EBA1, 9)
	c = bits.RotateLeft32(c+(d^a^b)+x6+0x6ED9EBA1, 11)
	b = bits.RotateLeft32(b+(c^d^a)+x14+0x6ED9EBA1, 15)
	a = bits.RotateLeft32(a+(b^c^d)+x1+0x6ED9EBA1, 3)
	d = bits.RotateLeft32(d+(a^b^c)+x9+0x6ED9EBA1, 9)
	c = bits.RotateLeft32(c+(d^a^b)+x5+0x6ED9EBA1, 11)
	b = bits.RotateLeft32(b+(c^d^a)+x13+0x6ED9EBA1, 15)
	a = bits.RotateLeft32(a+(b^c^d)+x3+0x6ED9EBA1, 3)
	d = bits.RotateLeft32(d+(a^b^c)+x11+0x6ED9EBA1, 9)
	c = bits.RotateLeft32(c+(d^a^b)+x7+0x6ED9EBA1, 11)
	b = bits.RotateLeft32(b+(c^d^a)+x15+0x6ED9EBA1, 15)

	dg.s[0] += a
	dg.s[1] += b
	dg.s[2] += c
	dg.s[3] += d
}
