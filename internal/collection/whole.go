package collection

import (
	"encoding/binary"
	"fmt"
	"math"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/wire"
)

// The whole-content stream (hello extension 5): a receiver that asks gets the
// session's whole files — the full verdicts, then the new files — as one
// compressed stream after the new-files section of VERDICTS, so small files
// share their Huffman tables and each other's matches. Each whole file's
// length stands where its compressed bytes stood in the per-file layout, and
// both ends cut the stream into segments from those lengths alone
// (segmentEnds), so no count or boundary goes on the wire.

// segmentMax is the raw length past which a segment of the stream closes:
// large enough that tiny files share their tables, small enough that three
// unrelated 2 MB files are not one match window (DESIGN.md §4, "Whole
// content").
const segmentMax = 1 << 20

// maxWhole is the longest whole file a receiver accepts, as delta.Decode
// caps a stream's declared length.
const maxWhole = 1 << 32

// segmentEnds cuts whole files of the given lengths, in stream order, into
// segments and returns where each ends in lens. A segment closes before any
// file that would take its raw length past segmentMax, so a longer file is a
// segment of its own. The lengths are at most maxWhole, so no sum overflows.
func segmentEnds(lens []uint64) []int {
	var ends []int
	var raw uint64
	for i, n := range lens {
		if i > 0 && raw+n > segmentMax {
			ends, raw = append(ends, i), 0
		}
		raw += n
	}
	if len(lens) > 0 {
		ends = append(ends, len(lens))
	}
	return ends
}

// wholeFile is one file the holder sends whole: its content, or the
// compressed blob a version store holds it as (then n is its length).
type wholeFile struct {
	data, blob []byte
	n          int
}

// compressed is the file's bytes in the per-file layout.
func (f wholeFile) compressed() []byte {
	if f.blob != nil {
		return f.blob
	}
	return delta.Compress(f.data)
}

// raw is the file's content.
func (f wholeFile) raw() ([]byte, error) {
	if f.blob == nil {
		return f.data, nil
	}
	data, err := delta.DecodeLen(nil, f.blob, f.n)
	if err != nil {
		err = fmt.Errorf("collection: stored blob of %d bytes: %w", f.n, err)
	}
	return data, err
}

// writeStream appends the stream of files to vb: one delta.Compress'ed
// segment each, a file alone in its segment compressed as in the per-file
// layout (a stored blob as it is). It returns the segments' bytes.
func writeStream(vb *wire.Buffer, files []wholeFile) (int, error) {
	lens := make([]uint64, len(files))
	for i, f := range files {
		lens[i] = uint64(f.n)
	}
	var buf []byte
	total, lo := 0, 0
	for _, hi := range segmentEnds(lens) {
		var seg []byte
		if hi-lo == 1 {
			seg = files[lo].compressed()
		} else {
			buf = buf[:0]
			for _, f := range files[lo:hi] {
				data, err := f.raw()
				if err != nil {
					return total, err
				}
				buf = append(buf, data...)
			}
			seg = delta.Compress(buf)
		}
		vb.Bytes(seg)
		total += len(seg)
		lo = hi
	}
	return total, nil
}

// wholeStream is what a receiver granted the stream reads of it: the whole
// files' paths and announced lengths in stream order, then their segments,
// checked against those lengths before any is decoded.
type wholeStream struct {
	paths []string
	lens  []uint64
	ends  []int // segmentEnds(lens)
	segs  [][]byte
	sums  []int // each segment's raw length
}

// announce reads the length of path's whole content.
func (w *wholeStream) announce(vp *wire.Parser, path string) error {
	n, err := vp.Uvarint()
	if err == nil && n > maxWhole {
		err = fmt.Errorf("%d bytes, more than %d", n, uint64(maxWhole))
	}
	if err != nil {
		return fmt.Errorf("%w: whole file %q: length: %w", core.ErrProtocol, path, err)
	}
	w.paths, w.lens = append(w.paths, path), append(w.lens, n)
	return nil
}

// read reads the segments segmentEnds cuts the announced files into, each of
// which must declare their summed length. It allocates nothing for what the
// segments declare, and returns their bytes.
func (w *wholeStream) read(vp *wire.Parser) (int, error) {
	total, lo := 0, 0
	w.ends = segmentEnds(w.lens)
	for k, hi := range w.ends {
		var sum uint64
		for _, n := range w.lens[lo:hi] {
			sum += n
		}
		seg, err := vp.Bytes()
		if err != nil {
			return total, fmt.Errorf("%w: whole-content segment %d missing: %w", core.ErrProtocol, k, err)
		}
		if declared, n := binary.Uvarint(seg); n <= 0 || declared != sum || sum > math.MaxInt {
			return total, fmt.Errorf("%w: whole-content segment %d declares another length than its files' %d bytes", core.ErrProtocol, k, sum)
		}
		w.segs, w.sums = append(w.segs, seg), append(w.sums, int(sum))
		total += len(seg)
		lo = hi
	}
	return total, nil
}

// decode decodes each segment read into its files' content in files. Each
// file gets its own full slice expression of its segment, so no append to
// one reaches its neighbour's bytes.
func (w *wholeStream) decode(files map[string][]byte) error {
	lo := 0
	for k, hi := range w.ends {
		data, err := delta.DecodeLen(nil, w.segs[k], w.sums[k])
		if err != nil {
			return fmt.Errorf("%w: whole-content segment %d: %w", core.ErrProtocol, k, err)
		}
		off := 0
		for i := lo; i < hi; i++ {
			n := int(w.lens[i])
			files[w.paths[i]] = data[off : off+n : off+n]
			off += n
		}
		lo = hi
	}
	return nil
}
