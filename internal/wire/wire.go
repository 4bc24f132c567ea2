// Package wire implements the low-level wire format shared by the msync
// protocol and its baselines: unsigned/signed varints, length-delimited
// frames, and a compact bitmap codec.
//
// Every byte that crosses a connection in this repository is produced by this
// package (directly or via bitio), so cost accounting in package stats can
// meter real encoded sizes rather than estimates.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// MaxFrameSize bounds a single frame payload. Frames carry per-round batches
// for whole collections, so the limit is generous; it exists to stop a
// corrupted length prefix from driving a huge allocation.
const MaxFrameSize = 1 << 30

// Frame type identifiers for the msync protocol. They ride in front of each
// frame so a reader can detect desynchronization early.
const (
	FrameHello byte = iota + 1
	FrameManifest
	FrameVerdicts
	FrameRoundHashes
	FrameRoundReply
	FrameConfirm
	FrameDelta
	FrameDone
	FrameError
	FrameFull
	FrameAck
	// FrameTree carries merkle-reconciliation messages (tree manifest mode).
	FrameTree
	// FrameWant lists the files a tree-mode client asks to receive.
	FrameWant
	// FrameBusy is the server's load-shedding answer to an over-capacity
	// dial: the session is refused before any state is exchanged and the
	// payload carries a retry-after hint. Appended after every pre-existing
	// type so admitted sessions stay byte-identical across versions.
	FrameBusy
	// FrameMuxAck accepts a client's stream-multiplexing request (hello
	// extension 2): it precedes the VERDICTS frame and carries the stream
	// partition of the session's sync files. Never sent unless the client
	// asked, so non-multiplexed sessions stay byte-identical.
	FrameMuxAck
	// FrameStream wraps one inner frame of a multiplexed session with its
	// stream id: `sid:uvarint innerType:byte innerPayload...`.
	FrameStream
	// FrameCycle delimits one batch of stream frames sharing a flush (and
	// therefore one half-roundtrip): its payload is the count of FrameStream
	// frames that follow.
	FrameCycle
	// FrameTreeAck grants a client's tree-descent extensions (hello
	// extension 3): its payload is the granted capability mask. Sent once,
	// before the server's first TREE reply in the same flush, and never
	// sent unless the client asked, so legacy tree sessions stay
	// byte-identical.
	FrameTreeAck
	// FrameManifestRef stands in for MANIFEST in a flat-mode pull that
	// announces a base version above 0: its payload is exactly the 16-byte
	// digest of the manifest the client withholds.
	FrameManifestRef
	// FrameManifestWant is the server's answer to a MANIFEST_REF it cannot
	// resolve: an empty payload, a roundtrip of its own, and the client sends
	// the withheld MANIFEST. Never sent to a client that sent MANIFEST.
	FrameManifestWant
	// FrameManifestPacked carries the entries of a MANIFEST in fewer bytes:
	// front-coded paths and lengths compressed as one column, then the raw
	// sums. A receiver sends it in place of MANIFEST when it is strictly
	// shorter.
	FrameManifestPacked
	// FrameManifestShort is MANIFEST_PACKED with each sum cut to its first
	// three bytes; the holder's VERDICTS then end in one MD4 per group of the
	// files it judged unchanged, which the receiver checks against its own.
	FrameManifestShort
)

// FrameName returns a human-readable name for a frame type.
func FrameName(t byte) string {
	switch t {
	case FrameHello:
		return "HELLO"
	case FrameManifest:
		return "MANIFEST"
	case FrameVerdicts:
		return "VERDICTS"
	case FrameRoundHashes:
		return "ROUND_HASHES"
	case FrameRoundReply:
		return "ROUND_REPLY"
	case FrameConfirm:
		return "CONFIRM"
	case FrameDelta:
		return "DELTA"
	case FrameDone:
		return "DONE"
	case FrameError:
		return "ERROR"
	case FrameFull:
		return "FULL"
	case FrameAck:
		return "ACK"
	case FrameTree:
		return "TREE"
	case FrameWant:
		return "WANT"
	case FrameBusy:
		return "BUSY"
	case FrameMuxAck:
		return "MUX_ACK"
	case FrameStream:
		return "STREAM"
	case FrameCycle:
		return "CYCLE"
	case FrameTreeAck:
		return "TREE_ACK"
	case FrameManifestRef:
		return "MANIFEST_REF"
	case FrameManifestWant:
		return "MANIFEST_WANT"
	case FrameManifestPacked:
		return "MANIFEST_PACKED"
	case FrameManifestShort:
		return "MANIFEST_SHORT"
	default:
		return fmt.Sprintf("UNKNOWN(%d)", t)
	}
}

// ErrFrameTooLarge is returned when a frame header declares a payload larger
// than MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrVarintOverflow is returned for overlong varints: encodings that run
// past the 10-byte maximum or whose tenth byte carries more than one value
// bit. encoding/binary reports these with a negative length that a naive
// caller can mistake for truncation; surfacing a distinct error keeps
// "corrupt stream" and "short stream" diagnosable apart.
var ErrVarintOverflow = errors.New("wire: varint overflows 64 bits")

// ErrTruncated is returned when a message ends in the middle of a value.
var ErrTruncated = errors.New("wire: truncated message")

// BusyError is the decoded form of a BUSY frame: the server refused the
// session at admission (over capacity) and suggests retrying after the
// embedded hint. It reaches callers as an error so retry loops can
// recognize it with errors.As and honor RetryAfter.
type BusyError struct {
	// RetryAfter is the server's backoff hint; 0 means "whenever".
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("wire: server busy, retry after %v", e.RetryAfter)
}

// EncodeBusy builds the BUSY frame payload: the retry-after hint in
// milliseconds as a uvarint. Sub-millisecond hints round up so a positive
// hint never encodes as zero.
func EncodeBusy(retryAfter time.Duration) []byte {
	ms := int64(0)
	if retryAfter > 0 {
		ms = int64((retryAfter + time.Millisecond - 1) / time.Millisecond)
	}
	return AppendUvarint(nil, uint64(ms))
}

// DecodeBusy parses a BUSY payload. A malformed payload degrades to a zero
// hint rather than failing: the session is refused either way.
func DecodeBusy(payload []byte) *BusyError {
	ms, n := binary.Uvarint(payload)
	if n <= 0 || ms > uint64(math.MaxInt64/int64(time.Millisecond)) {
		return &BusyError{}
	}
	return &BusyError{RetryAfter: time.Duration(ms) * time.Millisecond}
}

// AppendUvarint appends v to buf using the standard varint encoding.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// Buffer is an append-only message builder with varint helpers.
// The zero value is ready to use.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with preallocated capacity.
func NewBuffer(sizeHint int) *Buffer { return &Buffer{b: make([]byte, 0, sizeHint)} }

// Uvarint appends an unsigned varint.
func (m *Buffer) Uvarint(v uint64) { m.b = binary.AppendUvarint(m.b, v) }

// Byte appends a single byte.
func (m *Buffer) Byte(v byte) { m.b = append(m.b, v) }

// Bytes appends a length-prefixed byte string.
func (m *Buffer) Bytes(p []byte) {
	m.Uvarint(uint64(len(p)))
	m.b = append(m.b, p...)
}

// Raw appends bytes with no length prefix.
func (m *Buffer) Raw(p []byte) { m.b = append(m.b, p...) }

// String appends a length-prefixed string.
func (m *Buffer) String(s string) {
	m.Uvarint(uint64(len(s)))
	m.b = append(m.b, s...)
}

// Bool appends a boolean as one byte.
func (m *Buffer) Bool(v bool) {
	if v {
		m.b = append(m.b, 1)
	} else {
		m.b = append(m.b, 0)
	}
}

// Len reports the number of bytes built so far.
func (m *Buffer) Len() int { return len(m.b) }

// Build returns the accumulated bytes. The buffer remains usable.
func (m *Buffer) Build() []byte { return m.b }

// Reset clears the buffer for reuse.
func (m *Buffer) Reset() { m.b = m.b[:0] }

// Parser consumes a message produced by Buffer.
type Parser struct {
	b   []byte
	pos int
}

// NewParser returns a Parser over p (not copied).
func NewParser(p []byte) *Parser { return &Parser{b: p} }

// errShort is the generic truncation error.
var errShort = ErrTruncated

// Uvarint reads an unsigned varint. A buffer ending mid-varint returns
// ErrTruncated; an overlong encoding returns ErrVarintOverflow.
func (p *Parser) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.pos:])
	if n == 0 {
		return 0, errShort
	}
	if n < 0 {
		return 0, ErrVarintOverflow
	}
	p.pos += n
	return v, nil
}

// Byte reads a single byte.
func (p *Parser) Byte() (byte, error) {
	if p.pos >= len(p.b) {
		return 0, errShort
	}
	v := p.b[p.pos]
	p.pos++
	return v, nil
}

// Bool reads a boolean.
func (p *Parser) Bool() (bool, error) {
	v, err := p.Byte()
	return v != 0, err
}

// Bytes reads a length-prefixed byte string. The returned slice aliases the
// underlying buffer.
func (p *Parser) Bytes() ([]byte, error) {
	n, err := p.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)-p.pos) {
		return nil, errShort
	}
	out := p.b[p.pos : p.pos+int(n)]
	p.pos += int(n)
	return out, nil
}

// String reads a length-prefixed string.
func (p *Parser) String() (string, error) {
	b, err := p.Bytes()
	return string(b), err
}

// Raw reads n bytes with no length prefix.
func (p *Parser) Raw(n int) ([]byte, error) {
	if n < 0 || n > len(p.b)-p.pos {
		return nil, errShort
	}
	out := p.b[p.pos : p.pos+n]
	p.pos += n
	return out, nil
}

// Remaining reports the number of unread bytes.
func (p *Parser) Remaining() int { return len(p.b) - p.pos }

// A FrameWriter writes typed, length-delimited frames to an io.Writer.
// It counts the frames and bytes (headers included) it has written; the
// counters are plain fields because a frame writer, like the session that
// owns it, is single-goroutine by protocol design.
type FrameWriter struct {
	w       *bufio.Writer
	hdr     [binary.MaxVarintLen64 + 1]byte
	frames  int64
	bytes   int64
	flushes int64
}

// NewFrameWriter returns a FrameWriter wrapping w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriterSize(w, 64<<10)}
}

// WriteFrame writes a single frame of the given type.
func (fw *FrameWriter) WriteFrame(frameType byte, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	fw.hdr[0] = frameType
	n := binary.PutUvarint(fw.hdr[1:], uint64(len(payload)))
	if _, err := fw.w.Write(fw.hdr[:1+n]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	if err == nil {
		fw.frames++
		fw.bytes += int64(1+n) + int64(len(payload))
	}
	return err
}

// Counts reports the frames and bytes (headers included) written so far.
func (fw *FrameWriter) Counts() (frames, bytes int64) { return fw.frames, fw.bytes }

// ResetCounts zeroes the frame/byte/flush counters (pooled writers reset
// between sessions).
func (fw *FrameWriter) ResetCounts() { fw.frames, fw.bytes, fw.flushes = 0, 0, 0 }

// Flush flushes buffered frames to the underlying writer. Protocol code calls
// Flush exactly once per communication phase, which is what the transport
// layer counts as a half-roundtrip.
func (fw *FrameWriter) Flush() error {
	fw.flushes++
	return fw.w.Flush()
}

// Flushes reports how often Flush was called: the session's half-roundtrip
// count from this side's perspective, used by the latency benchmarks to
// convert a recorded session into wall-clock on a simulated link.
func (fw *FrameWriter) Flushes() int64 { return fw.flushes }

// A FrameReader reads typed, length-delimited frames from an io.Reader.
// Like FrameWriter it counts frames and bytes (headers included); plain
// fields, single-goroutine use.
type FrameReader struct {
	r      *bufio.Reader
	frames int64
	bytes  int64
}

// NewFrameReader returns a FrameReader wrapping r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// ReadFrame reads the next frame. The payload is freshly allocated. A
// length prefix with an overlong varint encoding fails with
// ErrVarintOverflow instead of desynchronizing the stream; a stream that
// ends inside the header or payload fails with io.ErrUnexpectedEOF.
func (fr *FrameReader) ReadFrame() (frameType byte, payload []byte, err error) {
	return fr.readFrame(MaxFrameSize)
}

// readFrame is ReadFrame for a payload of at most max bytes: a longer
// declared length fails with ErrFrameTooLarge before a payload byte is read.
func (fr *FrameReader) readFrame(max int) (frameType byte, payload []byte, err error) {
	frameType, err = fr.r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	size, sizeLen, err := readUvarint(fr.r)
	if err == nil {
		if size > uint64(max) {
			return 0, nil, ErrFrameTooLarge
		}
		payload, err = readPayload(fr.r, int(size))
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	fr.frames++
	fr.bytes += 1 + int64(sizeLen) + int64(size)
	return frameType, payload, nil
}

// payloadChunk is the most of a declared payload length ReadFrame allocates
// before the bytes arrive.
const payloadChunk = 64 << 10

// readPayload reads an n-byte payload. Up to payloadChunk it is one exact
// allocation. A longer declared length is believed only as the bytes arrive:
// the buffer starts at payloadChunk, or at what the reader already buffers,
// and doubles as it fills, so a header that lies costs at most payloadChunk
// or twice the bytes actually sent.
func readPayload(r *bufio.Reader, n int) ([]byte, error) {
	p := make([]byte, min(n, max(payloadChunk, r.Buffered())))
	for got := 0; ; {
		m, err := io.ReadFull(r, p[got:])
		if got += m; err != nil || got == n {
			return p, err
		}
		p = append(p, make([]byte, min(n, 2*len(p))-len(p))...)
	}
}

// readUvarint reads a varint byte-by-byte so overlong encodings surface as
// ErrVarintOverflow (binary.ReadUvarint reports them with a private error
// value that callers cannot test for). It also returns the encoded length.
func readUvarint(r *bufio.Reader) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, 0, ErrVarintOverflow
			}
			return x | uint64(b)<<s, i + 1, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0, ErrVarintOverflow
}

// Counts reports the frames and bytes (headers included) read so far.
func (fr *FrameReader) Counts() (frames, bytes int64) { return fr.frames, fr.bytes }

// ResetCounts zeroes the frame/byte counters (pooled readers reset between
// sessions).
func (fr *FrameReader) ResetCounts() { fr.frames, fr.bytes = 0, 0 }

// ExpectFrame reads the next frame and verifies its type. A BUSY answer in
// place of the expected frame decodes to a *BusyError so retry loops can
// recognize admission refusals wherever they land in the handshake.
func (fr *FrameReader) ExpectFrame(want byte) ([]byte, error) {
	return fr.ExpectFrameMax(want, MaxFrameSize)
}

// ExpectFrameMax is ExpectFrame for a frame whose payload may not exceed max
// bytes: a longer declared length fails with ErrFrameTooLarge before a
// payload byte is read.
func (fr *FrameReader) ExpectFrameMax(want byte, max int) ([]byte, error) {
	got, payload, err := fr.readFrame(max)
	if err != nil {
		return nil, err
	}
	if got != want {
		if got == FrameError {
			return nil, fmt.Errorf("wire: remote error: %s", payload)
		}
		if got == FrameBusy {
			return nil, DecodeBusy(payload)
		}
		return nil, fmt.Errorf("wire: expected frame %s, got %s", FrameName(want), FrameName(got))
	}
	return payload, nil
}
