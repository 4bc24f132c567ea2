package wire

import (
	"errors"
	"fmt"
)

// The STREAM frame layout of the retired stream multiplexing (hello extension
// 2): an ordinary typed frame whose payload prefixes an inner frame with its
// stream id. No session sends or accepts one any more (FrameStream); the
// codec stays for the benchmark's frame-wrapping measurement.

// MaxStreams bounds the stream ids ParseStreamFrame accepts.
const MaxStreams = 1 << 10

// ErrBadStream is returned for malformed stream framing: truncated headers,
// stream ids beyond the width, or overlong id encodings.
var ErrBadStream = errors.New("wire: malformed stream frame")

// StreamFrame is one decoded STREAM frame.
type StreamFrame struct {
	// ID is the stream the frame belongs to (dense, 0-based).
	ID int
	// Type is the inner frame type (ROUND_HASHES, ROUND_REPLY, CONFIRM,
	// DELTA, ACK, FULL).
	Type byte
	// Payload is the inner frame payload; it aliases the outer frame's
	// buffer.
	Payload []byte
}

// AppendStreamFrame builds a STREAM frame payload into b: the stream id,
// the inner type, then the inner payload verbatim.
func AppendStreamFrame(b *Buffer, id int, innerType byte, payload []byte) {
	b.Uvarint(uint64(id))
	b.Byte(innerType)
	b.Raw(payload)
}

// ParseStreamFrame decodes a STREAM frame payload. width is the stream count;
// ids at or beyond it are rejected so a caller can index fixed-size stream
// tables safely.
func ParseStreamFrame(payload []byte, width int) (StreamFrame, error) {
	p := NewParser(payload)
	id, err := p.Uvarint()
	if err != nil {
		return StreamFrame{}, fmt.Errorf("%w: stream id: %v", ErrBadStream, err)
	}
	if id >= uint64(width) || id >= MaxStreams {
		return StreamFrame{}, fmt.Errorf("%w: stream id %d beyond width %d", ErrBadStream, id, width)
	}
	t, err := p.Byte()
	if err != nil {
		return StreamFrame{}, fmt.Errorf("%w: missing inner type", ErrBadStream)
	}
	inner, err := p.Raw(p.Remaining())
	if err != nil {
		return StreamFrame{}, err
	}
	return StreamFrame{ID: int(id), Type: t, Payload: inner}, nil
}
