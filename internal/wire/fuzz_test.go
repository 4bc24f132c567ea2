package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzFrameReader: arbitrary byte streams must never panic the frame layer
// or allocate absurd buffers.
func FuzzFrameReader(f *testing.F) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.WriteFrame(FrameHello, []byte("hi"))
	fw.WriteFrame(FrameDelta, bytes.Repeat([]byte("x"), 300))
	fw.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte{FrameRoundHashes, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02})
	// Overlong length varint: 10 continuation bytes followed by more — must
	// fail with ErrVarintOverflow, not a bogus length.
	f.Add([]byte{FrameHello, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	// Tenth byte with more than one value bit set: also an overflow.
	f.Add([]byte{FrameHello, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	// Truncated mid-varint: stream ends inside the length prefix.
	f.Add([]byte{FrameDelta, 0xFF, 0x90})
	// A 1 GiB length and then EOF: read as far as bytes arrive, not allocated.
	f.Add(AppendUvarint([]byte{FrameDelta}, MaxFrameSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			_, payload, err := fr.ReadFrame()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && err != ErrFrameTooLarge && err != ErrVarintOverflow {
					// Any other error type is fine too; just never panic.
					_ = err
				}
				return
			}
			if len(payload) > MaxFrameSize {
				t.Fatal("oversized frame accepted")
			}
		}
	})
}

// FuzzParser: parser accessors on arbitrary bytes.
func FuzzParser(f *testing.F) {
	b := NewBuffer(32)
	b.Uvarint(7)
	b.String("hello")
	b.Bytes([]byte{1, 2, 3})
	f.Add(b.Build())
	// Overlong varint (11 bytes of continuation) and a truncated one: both
	// must surface typed errors, never a misleading value.
	f.Add(bytes.Repeat([]byte{0xFF}, 11))
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewParser(data)
		if _, err := p.Uvarint(); err != nil && err != ErrTruncated && err != ErrVarintOverflow {
			t.Fatalf("Uvarint error %v, want ErrTruncated or ErrVarintOverflow", err)
		}
		p.Byte()
		p.Bool()
		p.Bytes()
		p.String()
		p.Raw(4)
	})
}

// FuzzStreamFrame: the stream-frame demuxer on arbitrary bytes — truncated
// headers, interleaved garbage, and overlong stream-id varints must all
// surface typed errors, never panic or accept an out-of-range id.
func FuzzStreamFrame(f *testing.F) {
	b := NewBuffer(32)
	AppendStreamFrame(b, 3, FrameRoundHashes, []byte("section"))
	f.Add(b.Build())
	// Truncated: id only, no inner type.
	f.Add([]byte{0x03})
	// Overlong stream-id varint (ten continuation bytes).
	f.Add(append(bytes.Repeat([]byte{0xFF}, 10), 0x7F))
	// Id beyond any sane width.
	f.Add([]byte{0xFF, 0xFF, 0x7F, FrameDelta, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, width := range []int{1, 4, MaxStreams} {
			sf, err := ParseStreamFrame(data, width)
			if err != nil {
				continue
			}
			if sf.ID < 0 || sf.ID >= width {
				t.Fatalf("accepted stream id %d beyond width %d", sf.ID, width)
			}
		}
	})
}
