package collection

import (
	"encoding/binary"
	"fmt"
	"math"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/pool"
	"msync/internal/wire"
)

// Segments: a receiver that asks gets a session's whole files (hello
// extension 5) and the deltas of its synced files (hello extension 7) coded
// as a few shared streams rather than file by file, so small files share
// their Huffman tables and each other's matches.
//
// The whole-content stream: the full verdicts, then the new files, as one
// compressed stream after the new-files section of VERDICTS. Each whole
// file's length stands where its compressed bytes stood in the per-file
// layout.
//
// The delta stream: after the DELTA frame's per-file headers, each segment is
// one delta of its files' gaps, concatenated, against their covered bytes,
// concatenated (core.EncodeGaps).
//
// Both ends cut either stream into segments from lengths they both hold once
// the verdicts (or the map) are done (segmentEnds), so no count or boundary
// goes on the wire: each segment declares its raw length, which the receiver
// checks against what it expects before it decodes any segment
// (readSegments).

// segmentMax is the raw length past which a segment of the whole-content
// stream closes: large enough that tiny files share their tables, small
// enough that three unrelated 2 MB files are not one match window (DESIGN.md
// §4, "Whole content").
const segmentMax = 1 << 20

// deltaSegmentMax is the same cap for the delta stream, over the files'
// lengths (covered plus gap bytes). It is smaller: a delta segment indexes
// all its covered bytes as the reference, and past a quarter megabyte the
// encoder's time grew faster than the bytes it saved (EXPERIMENTS.md "One
// delta stream a session").
const deltaSegmentMax = 256 << 10

// maxWhole is the longest whole file a receiver accepts, as delta.Decode
// caps a stream's declared length.
const maxWhole = 1 << 32

// segmentEnds cuts items of the given lengths, in stream order, into
// segments of at most max raw bytes and returns where each ends in lens. A
// segment closes before any item that would take its raw length past max, so
// a longer item is a segment of its own. The lengths are at most maxWhole, so
// no sum overflows.
func segmentEnds(lens []uint64, max uint64) []int {
	var ends []int
	var raw uint64
	for i, n := range lens {
		if i > 0 && raw+n > max {
			ends, raw = append(ends, i), 0
		}
		raw += n
	}
	if len(lens) > 0 {
		ends = append(ends, len(lens))
	}
	return ends
}

// eachSegment runs fn across workers for every segment ends cuts a stream
// into: segment k covers items [lo, hi).
func eachSegment(workers int, ends []int, fn func(k, lo, hi int) error) error {
	return pool.Do(workers, len(ends), func(k int) error {
		lo := 0
		if k > 0 {
			lo = ends[k-1]
		}
		return fn(k, lo, ends[k])
	})
}

// segmentSums is the summed length of each segment ends cuts a stream into,
// n(i) the length of item i.
func segmentSums(ends []int, n func(i int) uint64) []uint64 {
	sums := make([]uint64, len(ends))
	lo := 0
	for k, hi := range ends {
		for i := lo; i < hi; i++ {
			sums[k] += n(i)
		}
		lo = hi
	}
	return sums
}

// writeSegments appends segs to b and returns their bytes.
func writeSegments(b *wire.Buffer, segs [][]byte) int {
	total := 0
	for _, seg := range segs {
		b.Bytes(seg)
		total += len(seg)
	}
	return total
}

// readSegments reads one segment per entry of sums, each of which must
// declare that raw length; what names the stream in errors. It allocates
// nothing for what the segments declare, and returns them with their bytes.
// A length this platform's int cannot hold is refused as one the segment
// could not decode to, as DecodeLen refuses any other.
func readSegments(vp *wire.Parser, sums []uint64, what string) ([][]byte, int, error) {
	segs, total := make([][]byte, len(sums)), 0
	for k, sum := range sums {
		seg, err := vp.Bytes()
		if err != nil {
			return nil, total, fmt.Errorf("%w: %s segment %d missing: %w", core.ErrProtocol, what, k, err)
		}
		if declared, n := binary.Uvarint(seg); n <= 0 || declared != sum || sum > math.MaxInt {
			return nil, total, fmt.Errorf("%w: %s segment %d declares another length than its files' %d bytes: %w", core.ErrProtocol, what, k, sum, delta.ErrCorrupt)
		}
		segs[k] = seg
		total += len(seg)
	}
	return segs, total, nil
}

// wholeFile is one file the holder sends whole: its content, or the
// compressed blob a version store holds it as (then n is its length).
type wholeFile struct {
	data, blob []byte
	n          int
}

// compressed is the file's bytes in the per-file layout, compressed in mode m
// unless a store holds them compressed already.
func (f wholeFile) compressed(m delta.Mode) []byte {
	if f.blob != nil {
		return f.blob
	}
	return m.Compress(f.data)
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

// writeStream appends the stream of files to vb: one segment each,
// compressed in mode m across workers, a file alone in its segment compressed
// as in the per-file layout (a stored blob as it is). It returns the
// segments' bytes.
func writeStream(vb *wire.Buffer, files []wholeFile, m delta.Mode, workers int) (int, error) {
	lens := make([]uint64, len(files))
	for i, f := range files {
		lens[i] = uint64(f.n)
	}
	ends := segmentEnds(lens, segmentMax)
	segs := make([][]byte, len(ends))
	err := eachSegment(workers, ends, func(k, lo, hi int) error {
		if hi-lo == 1 {
			segs[k] = files[lo].compressed(m)
			return nil
		}
		var buf []byte
		for _, f := range files[lo:hi] {
			data, err := f.raw()
			if err != nil {
				return err
			}
			buf = append(buf, data...)
		}
		segs[k] = m.Compress(buf)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return writeSegments(vb, segs), nil
}

// wholeStream is what a receiver granted the stream reads of it: the whole
// files' paths and announced lengths in stream order, then their segments,
// checked against those lengths before any is decoded.
type wholeStream struct {
	paths []string
	lens  []uint64
	ends  []int // segmentEnds(lens, segmentMax)
	segs  [][]byte
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
// which must declare their summed length, and returns their bytes.
func (w *wholeStream) read(vp *wire.Parser) (int, error) {
	w.ends = segmentEnds(w.lens, segmentMax)
	var total int
	var err error
	w.segs, total, err = readSegments(vp, segmentSums(w.ends, func(i int) uint64 { return w.lens[i] }), "whole-content")
	return total, err
}

// decode decodes each segment read into its files' content in files. Each
// file gets its own full slice expression of its segment, so no append to
// one reaches its neighbour's bytes.
func (w *wholeStream) decode(files map[string][]byte) error {
	lo := 0
	for k, hi := range w.ends {
		// readSegments held the declared length to the files' sum.
		data, err := delta.Decode(nil, w.segs[k])
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
