package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestStreamFrameRoundTrip(t *testing.T) {
	payload := []byte("inner payload bytes")
	b := NewBuffer(32)
	AppendStreamFrame(b, 5, FrameRoundHashes, payload)
	sf, err := ParseStreamFrame(b.Build(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if sf.ID != 5 || sf.Type != FrameRoundHashes || !bytes.Equal(sf.Payload, payload) {
		t.Fatalf("round trip mismatch: %+v", sf)
	}
}

func TestStreamFrameEmptyPayload(t *testing.T) {
	b := NewBuffer(8)
	AppendStreamFrame(b, 0, FrameAck, nil)
	sf, err := ParseStreamFrame(b.Build(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sf.ID != 0 || sf.Type != FrameAck || len(sf.Payload) != 0 {
		t.Fatalf("empty payload mismatch: %+v", sf)
	}
}

func TestStreamFrameRejects(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		width   int
	}{
		{"empty", nil, 4},
		{"id beyond width", func() []byte {
			b := NewBuffer(8)
			AppendStreamFrame(b, 4, FrameDelta, nil)
			return b.Build()
		}(), 4},
		{"overlong id varint", append(bytes.Repeat([]byte{0xFF}, 10), 0x7F, FrameDelta), 4},
		{"missing inner type", []byte{0x02}, 4},
		{"huge id", []byte{0xFF, 0xFF, 0x7F, FrameDelta}, MaxStreams + 1},
	}
	for _, tc := range cases {
		if _, err := ParseStreamFrame(tc.payload, tc.width); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !errors.Is(err, ErrBadStream) && !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: error %v not ErrBadStream/ErrTruncated", tc.name, err)
		}
	}
}

func TestFrameWriterFlushes(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if fw.Flushes() != 0 {
		t.Fatal("fresh writer has flushes")
	}
	fw.WriteFrame(FrameHello, []byte("x"))
	fw.Flush()
	fw.WriteFrame(FrameDelta, []byte("y"))
	fw.Flush()
	if got := fw.Flushes(); got != 2 {
		t.Fatalf("flushes = %d, want 2", got)
	}
	fw.ResetCounts()
	if fw.Flushes() != 0 {
		t.Fatal("ResetCounts did not clear flushes")
	}
}
