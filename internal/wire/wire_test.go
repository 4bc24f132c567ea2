package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"msync/internal/alloctest"
)

func TestBufferParserRoundTrip(t *testing.T) {
	b := NewBuffer(64)
	b.Uvarint(0)
	b.Uvarint(1 << 40)
	b.Byte(0xAB)
	b.Bool(true)
	b.Bool(false)
	b.Bytes([]byte("payload"))
	b.String("path/to/file")
	b.Raw([]byte{9, 9})

	p := NewParser(b.Build())
	if v, _ := p.Uvarint(); v != 0 {
		t.Fatal("uvarint 0")
	}
	if v, _ := p.Uvarint(); v != 1<<40 {
		t.Fatal("uvarint big")
	}
	if v, _ := p.Byte(); v != 0xAB {
		t.Fatal("byte")
	}
	if v, _ := p.Bool(); !v {
		t.Fatal("bool true")
	}
	if v, _ := p.Bool(); v {
		t.Fatal("bool false")
	}
	if v, _ := p.Bytes(); string(v) != "payload" {
		t.Fatal("bytes")
	}
	if v, _ := p.String(); v != "path/to/file" {
		t.Fatal("string")
	}
	if v, _ := p.Raw(2); !bytes.Equal(v, []byte{9, 9}) {
		t.Fatal("raw")
	}
	if p.Remaining() != 0 {
		t.Fatalf("remaining %d", p.Remaining())
	}
}

func TestQuickVarints(t *testing.T) {
	f := func(u, v uint64) bool {
		b := NewBuffer(20)
		b.Uvarint(u)
		b.Uvarint(v)
		p := NewParser(b.Build())
		gu, err1 := p.Uvarint()
		gv, err2 := p.Uvarint()
		return err1 == nil && err2 == nil && gu == u && gv == v && p.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSignedVarints(t *testing.T) {
	f := func(u int64, v uint64) bool {
		b := NewBuffer(20)
		b.Varint(u)
		b.Uvarint(v)
		p := NewParser(b.Build())
		gu, err1 := p.Varint()
		gv, err2 := p.Uvarint()
		return err1 == nil && err2 == nil && gu == u && gv == v && p.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewParser([]byte{0xFF}).Varint(); err != ErrTruncated {
		t.Fatalf("truncated Varint error = %v, want ErrTruncated", err)
	}
	if _, err := NewParser(append(bytes.Repeat([]byte{0xFF}, 9), 0x7F)).Varint(); err != ErrVarintOverflow {
		t.Fatalf("hot-tail Varint error = %v, want ErrVarintOverflow", err)
	}
}

func TestParserTruncation(t *testing.T) {
	b := NewBuffer(8)
	b.Bytes([]byte("hello"))
	raw := b.Build()
	for cut := 0; cut < len(raw); cut++ {
		p := NewParser(raw[:cut])
		if _, err := p.Bytes(); err == nil {
			t.Fatalf("cut=%d: no error", cut)
		}
	}
}

func TestParserEmptyReads(t *testing.T) {
	p := NewParser(nil)
	if _, err := p.Uvarint(); err == nil {
		t.Fatal("uvarint on empty")
	}
	if _, err := p.Byte(); err == nil {
		t.Fatal("byte on empty")
	}
	if _, err := p.Raw(1); err == nil {
		t.Fatal("raw on empty")
	}
	if _, err := p.Raw(-1); err == nil {
		t.Fatal("negative raw")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	payloads := [][]byte{nil, []byte("a"), bytes.Repeat([]byte("xyz"), 10000)}
	types := []byte{FrameHello, FrameDelta, FrameRoundHashes}
	for i, p := range payloads {
		if err := fw.WriteFrame(types[i], p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	for i, p := range payloads {
		ft, got, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if ft != types[i] || !bytes.Equal(got, p) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	// Craft a header declaring an absurd size.
	var buf bytes.Buffer
	buf.WriteByte(FrameDelta)
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	fr := NewFrameReader(&buf)
	if _, _, err := fr.ReadFrame(); err != ErrFrameTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var full bytes.Buffer
	fw := NewFrameWriter(&full)
	fw.WriteFrame(FrameDelta, []byte("0123456789"))
	fw.Flush()
	raw := full.Bytes()
	fr := NewFrameReader(bytes.NewReader(raw[:len(raw)-3]))
	if _, _, err := fr.ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v", err)
	}
}

// TestReadFrameAllocatesAsBytesArrive: a six-byte header declaring a 1 GiB
// payload, followed by nothing, costs the reader less than 256 KB (its own
// 64 KB buffer included) before it fails with io.ErrUnexpectedEOF. Allocating
// what the header declares would let any connection reserve a gigabyte before
// its hello is parsed. A frame that does arrive in full reads back whole.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	hdr := AppendUvarint([]byte{FrameDelta}, MaxFrameSize)
	var err error
	if per := alloctest.BytesPerOp(2, func() {
		_, _, err = NewFrameReader(bytes.NewReader(hdr)).ReadFrame()
	}); per >= 256<<10 || err != io.ErrUnexpectedEOF {
		t.Fatalf("a 1 GiB header and EOF: %v after %d bytes allocated, want io.ErrUnexpectedEOF under 256 KB", err, per)
	}
	for _, n := range []int{payloadChunk, payloadChunk + 1, 5*payloadChunk + 3} {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		want := bytes.Repeat([]byte("0123456789abcdef"), n/16+1)[:n]
		fw.WriteFrame(FrameFull, want)
		fw.Flush()
		if _, got, err := NewFrameReader(&buf).ReadFrame(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte frame: %v, payload intact %v", n, err, bytes.Equal(got, want))
		}
	}
}

func TestFrameNames(t *testing.T) {
	for ft := byte(1); ft <= FrameAck; ft++ {
		if strings.HasPrefix(FrameName(ft), "UNKNOWN") {
			t.Errorf("frame %d has no name", ft)
		}
	}
	if !strings.HasPrefix(FrameName(200), "UNKNOWN") {
		t.Error("unknown frame should say so")
	}
}

// TestVarintTypedErrors: overlong and truncated varints are told apart by
// distinct typed errors instead of a shared "truncated" catch-all.
func TestVarintTypedErrors(t *testing.T) {
	overlong := bytes.Repeat([]byte{0x80}, 10)
	overlong = append(overlong, 0x01) // 11 bytes: past MaxVarintLen64
	if _, err := NewParser(overlong).Uvarint(); err != ErrVarintOverflow {
		t.Fatalf("overlong Uvarint error = %v, want ErrVarintOverflow", err)
	}
	// Tenth byte with more than one value bit: overflows uint64.
	hot := append(bytes.Repeat([]byte{0xFF}, 9), 0x7F)
	if _, err := NewParser(hot).Uvarint(); err != ErrVarintOverflow {
		t.Fatalf("hot-tail Uvarint error = %v, want ErrVarintOverflow", err)
	}
	truncated := []byte{0xFF, 0x90}
	if _, err := NewParser(truncated).Uvarint(); err != ErrTruncated {
		t.Fatalf("truncated Uvarint error = %v, want ErrTruncated", err)
	}
	if _, err := NewParser(nil).Uvarint(); err != ErrTruncated {
		t.Fatalf("empty Uvarint error = %v, want ErrTruncated", err)
	}
}

// TestFrameReaderVarintErrors: the frame length prefix gets the same
// treatment — overlong headers fail typed, truncated ones as unexpected EOF.
func TestFrameReaderVarintErrors(t *testing.T) {
	overlong := append([]byte{FrameHello}, bytes.Repeat([]byte{0x80}, 10)...)
	overlong = append(overlong, 0x01)
	if _, _, err := NewFrameReader(bytes.NewReader(overlong)).ReadFrame(); err != ErrVarintOverflow {
		t.Fatalf("overlong frame length error = %v, want ErrVarintOverflow", err)
	}
	hot := append([]byte{FrameHello}, bytes.Repeat([]byte{0xFF}, 9)...)
	hot = append(hot, 0x7F)
	if _, _, err := NewFrameReader(bytes.NewReader(hot)).ReadFrame(); err != ErrVarintOverflow {
		t.Fatalf("hot-tail frame length error = %v, want ErrVarintOverflow", err)
	}
	truncated := []byte{FrameHello, 0xFF}
	if _, _, err := NewFrameReader(bytes.NewReader(truncated)).ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame length error = %v, want ErrUnexpectedEOF", err)
	}
	// A valid max-length encoding still decodes (counts must match too).
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame(FrameAck, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	fw.Flush()
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	if _, payload, err := fr.ReadFrame(); err != nil || len(payload) != 3 {
		t.Fatalf("round-trip frame = (%v, %v)", payload, err)
	}
	if _, b := fr.Counts(); b != int64(buf.Len()) {
		t.Fatalf("reader counted %d bytes, wrote %d", b, buf.Len())
	}
}

// TestBusyRoundTrip: BUSY payload encoding and decoding into a typed error.
func TestBusyRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 250 * time.Millisecond, 30 * time.Second} {
		got := DecodeBusy(EncodeBusy(d))
		if got.RetryAfter != d {
			t.Fatalf("busy round-trip %v -> %v", d, got.RetryAfter)
		}
	}
	// Sub-millisecond hints round up, never to zero.
	if got := DecodeBusy(EncodeBusy(100 * time.Microsecond)); got.RetryAfter != time.Millisecond {
		t.Fatalf("sub-ms hint decoded to %v, want 1ms", got.RetryAfter)
	}
	// Malformed payloads degrade to a zero hint.
	if got := DecodeBusy([]byte{0xFF}); got.RetryAfter != 0 {
		t.Fatalf("malformed busy payload decoded to %v", got.RetryAfter)
	}

	if FrameName(FrameBusy) != "BUSY" {
		t.Fatalf("FrameName(FrameBusy) = %q", FrameName(FrameBusy))
	}
}

// TestReadFrameMax: a frame at the cap reads; one declaring a byte past it
// is refused with ErrFrameTooLarge before a payload byte is read.
func TestReadFrameMax(t *testing.T) {
	frame := []byte{FrameHello, 3, 1, 2, 3}
	if _, p, err := NewFrameReader(bytes.NewReader(frame)).ReadFrameMax(3); err != nil || len(p) != 3 {
		t.Fatalf("frame at the cap: %v, %d bytes", err, len(p))
	}
	header := bytes.NewReader(frame[:2])
	payload := iotest.ErrReader(errors.New("payload read"))
	if _, _, err := NewFrameReader(io.MultiReader(header, payload)).ReadFrameMax(2); err != ErrFrameTooLarge {
		t.Fatalf("frame past the cap: %v, want ErrFrameTooLarge", err)
	}
}
