// Package delta implements a reference-based delta compressor and
// decompressor — this repository's stand-in for the zdelta/vcdiff tools the
// paper uses (see DESIGN.md, substitutions table).
//
// Encode(ref, target) produces a compact encoding of target that Decode can
// reconstruct given the same ref. The encoder runs an LZ77-style greedy parse
// (with one-step lazy matching) over a seed index covering both the
// reference and the already-emitted target prefix, then entropy-codes the
// resulting copy/literal operations with canonical Huffman codes
// (internal/huffman).
//
// Reference copies use zdelta-style relative addressing: the position of a
// reference copy is encoded as a signed delta from the byte just past the
// previous reference copy, which makes long runs of in-order matches (the
// dominant pattern between file versions) nearly free to address.
//
// With an empty reference, Encode degrades to a plain self-referential
// compressor, which the rsync baseline uses to compress its literal stream
// (standing in for rsync's gzip pass).
//
// The byte after the target length names the format. Encode writes mode 0
// (or stored), byte for byte as it always has: journal blobs, the paper's
// tables and every peer that does not ask for more get it. Mode2.Encode
// writes mode 2 (mode2.go), which codes the same kind of parse with the copy
// kind in the main symbol, rep distances, split alphabets and cheaper
// tables; a holder writes it only to a receiver that asked in its hello.
// Decode and DecodeLen read every mode under the same allocation bound.
package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"msync/internal/bitio"
	"msync/internal/huffman"
)

const (
	// MinMatch is the shortest copy the encoder will emit.
	MinMatch = 4
	// maxMatch caps a single copy op; longer matches span several ops.
	maxMatch = 1 << 20
	// hashBits sizes the seed hash table.
	hashBits = 17
	// maxChain bounds the candidates tried per position: a bucket's most recent.
	maxChain = 64
	// symEOB terminates the op stream.
	symEOB = 256
	// symLenBase is the first length-code symbol.
	symLenBase = 257
	// numLenCodes: lengths d = L-MinMatch; d<8 direct, then bucketed by bit
	// length up to 35 bits (values to ~34 GB, far beyond any single file).
	numLenCodes = 8 + 32
	// mainAlphabet is literals + EOB + length codes.
	mainAlphabet = symLenBase + numLenCodes
	// numOffCodes: same bucketing for offsets/deltas.
	numOffCodes = 8 + 32
)

// ErrCorrupt is returned by Decode when the delta stream is malformed.
var ErrCorrupt = errors.New("delta: corrupt stream")

// Op is one parsed operation, exposed so alternative encoders (e.g. the
// VCDIFF format in internal/vcdiff) can reuse the parser.
type Op struct {
	// Literal is non-nil for literal runs.
	Literal []byte
	// Length is the copy length.
	Length int
	// FromRef selects the copy source: the reference (true) or the already
	// produced target prefix (false).
	FromRef bool
	// RefPos is the absolute reference position of a reference copy.
	RefPos int
	// Dist is the distance back into the target of a self copy.
	Dist int
}

// bucket maps a non-negative value to (code, extraBits, extraVal).
func bucket(v int) (code int, extraBits uint, extraVal uint64) {
	if v < 8 {
		return v, 0, 0
	}
	nb := bits.Len(uint(v)) // >= 4
	return 8 + nb - 4, uint(nb - 1), uint64(v) - 1<<(nb-1)
}

// unbucket reverses bucket given the code and a bit reader for extras. A code
// past the numLenCodes (= numOffCodes) that bucket yields comes from a code
// table declaring a larger alphabet than the encoder's: corrupt.
func unbucket(code int, r *bitio.Reader) (int, error) {
	if code < 8 {
		return code, nil
	}
	if code >= numLenCodes {
		return 0, ErrCorrupt
	}
	nb := code - 8 + 4
	extra, err := r.ReadBits(uint(nb - 1))
	if err != nil {
		return 0, err
	}
	return 1<<(nb-1) + int(extra), nil
}

// zigzag encodes a signed int as unsigned.
func zigzag(v int) int {
	if v < 0 {
		return -2*v - 1
	}
	return 2 * v
}

func unzigzag(v int) int {
	if v&1 == 1 {
		return -(v + 1) / 2
	}
	return v / 2
}

func seedHash(p []byte) uint32 {
	v := binary.LittleEndian.Uint32(p)
	return (v * 2654435761) >> (32 - hashBits)
}

// matcher is the encoder's match-finder and the scratch Encode works in: a
// seed index over a virtual address space — positions [0, len(ref)) are
// reference bytes, positions >= len(ref) are target bytes (at pos-len(ref)) —
// plus the copy records and frequency tables of one parse. Matchers are
// pooled (see matcherPool), so what an encode costs beyond its own input is
// zeroing the buckets it used, not a fresh 512 KB table.
//
// The index is a counting sort of positions by seed hash. slots holds one
// contiguous run per bucket — a negative sentinel, then the bucket's
// positions in ascending order, reference first, with room for every target
// seed — and table[h] is the bucket's cursor: the slot its next position goes
// in, so the slots before it, back to the sentinel, are the bucket's
// candidates most recent first. An unused bucket's cursor is zero, and every
// bucket is unused between encodes.
type matcher struct {
	ref, target []byte
	table       []int32 // 1<<hashBits cursors into slots
	slots       []int32
	order       []int32 // the buckets in use, as acquire first met them
	copies      []copyOp
	mainFreq    [mainAlphabet]int64
	offFreq     [numOffCodes]int64
	// Mode 2's frequency tables.
	main2Freq         [mainAlphabet2]int64
	refFreq, selfFreq [numDist2]int64
}

// copyOp is one copy of the parse and the literals before it: target bytes
// [at, at+lit) are literals and the next length bytes a copy, where at is the
// end of the previous copyOp. The literals after the last copy are implied
// by the target's length.
type copyOp struct {
	lit, length uint32
	// src is the reference position of a reference copy, or minus the
	// distance back into the target of a self copy (never zero).
	src int32
}

const (
	// sparseResetMax is the number of buckets in use up to which release
	// zeroes them one by one; above it one clear of the whole table is
	// cheaper. BenchmarkTableReset measures both sides; EXPERIMENTS.md
	// records the crossover.
	sparseResetMax = 1 << (hashBits - 4)
	// maxRetainedSlots caps what a pooled matcher keeps from one encode to
	// the next besides its table and order (512 KB each): 16 MB of slots,
	// which a file of up to ~3.5 MB fits in, and the copy records that go
	// with them (670 KB for a 2 MB dump's 56 000 copies; never more than a
	// quarter as many as slots, a copy being MinMatch bytes or more). A
	// matcher in steady use is never idle long enough for sync.Pool to drop
	// it, so without a cap one huge file would pin five times its size for as
	// long as the process encodes anything. EXPERIMENTS.md, "Delta encoder
	// working set", has the measurement the value comes from.
	maxRetainedSlots = 1 << 22
)

// matcherPool hands each encoding goroutine a private matcher for the span of
// one Parse/Encode call; nothing in a matcher outlives the call that took it.
var matcherPool = sync.Pool{
	New: func() any { return &matcher{table: make([]int32, 1<<hashBits)} },
}

// seeds is the number of positions of p a seed starts at.
func seeds(p []byte) int { return max(len(p)-MinMatch+1, 0) }

// grown returns s with length n, reallocated only if its capacity is short;
// what it holds is garbage either way.
func grown(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// acquire takes a matcher from the pool and indexes ref, in three passes:
// count the seeds of ref and target per bucket (as negative cursors), noting
// each bucket when it is first met; lay the buckets' runs out in that order —
// so the build is O(input), with no prefix sum over the table; file ref's
// positions. Every slot is written before a cursor passes it, so slots is
// reused uncleared.
func acquire(ref, target []byte) *matcher {
	m := matcherPool.Get().(*matcher)
	m.ref, m.target = ref, target
	table := m.table
	n := seeds(ref) + seeds(target)
	// One spare entry: a seed is noted before it is known to be a bucket's first.
	order := grown(m.order, min(n, len(table))+1)
	k := 0
	for _, p := range [2][]byte{ref, target} {
		for i := 0; i+MinMatch <= len(p); i++ {
			h := seedHash(p[i:])
			c := table[h]
			order[k] = int32(h)
			if c == 0 {
				k++
			}
			table[h] = c - 1
		}
	}
	m.order = order[:k]
	slots := grown(m.slots, n+k)
	m.slots = slots
	next := int32(0)
	for _, h := range m.order {
		slots[next] = -1
		count := -table[h]
		table[h] = next + 1
		next += 1 + count
	}
	for i := 0; i+MinMatch <= len(ref); i++ {
		h := seedHash(ref[i:])
		c := table[h]
		slots[c] = int32(i)
		table[h] = c + 1
	}
	return m
}

// release zeroes the buckets that were in use and the frequency tables, drops
// references to the caller's buffers and oversized scratch, and returns m to
// the pool.
func (m *matcher) release() {
	if len(m.order) <= sparseResetMax {
		for _, h := range m.order {
			m.table[h] = 0
		}
	} else {
		clear(m.table)
	}
	m.mainFreq = [mainAlphabet]int64{}
	m.offFreq = [numOffCodes]int64{}
	m.main2Freq = [mainAlphabet2]int64{}
	m.refFreq, m.selfFreq = [numDist2]int64{}, [numDist2]int64{}
	m.ref, m.target = nil, nil
	if cap(m.slots) > maxRetainedSlots {
		m.slots, m.copies = nil, nil
	}
	m.copies = m.copies[:0]
	matcherPool.Put(m)
}

// insert adds target position q to the index. The parse inserts every target
// position once, in ascending order, so a run stays sorted and ends exactly
// where the count said it would.
func (m *matcher) insert(q int) {
	if q+MinMatch > len(m.target) {
		return
	}
	h := seedHash(m.target[q:])
	c := m.table[h]
	m.slots[c] = int32(len(m.ref) + q)
	m.table[h] = c + 1
}

func matchLen(a, b []byte, max int) int {
	if len(a) < max {
		max = len(a)
	}
	if len(b) < max {
		max = len(b)
	}
	i := 0
	for i+8 <= max {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		if x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
		i += 8
	}
	for i < max && a[i] == b[i] {
		i++
	}
	return i
}

// bestMatch finds the longest match for target[i:] in the index among the
// bucket's maxChain most recent positions and returns its length and virtual
// position, or length 0 when none is at least floor bytes long (floor >=
// MinMatch). lastRef biases tie-breaks toward cheap-to-address ref positions.
//
// A candidate matters only if it is at least need = max(bestLen, floor) bytes
// long: a shorter one neither replaces the best so far nor is a result the
// caller uses, and among candidates of the final length the winner depends on
// those candidates alone. So a candidate is first tested on the four bytes
// ending at need, which every match that long contains, and measured only if
// they agree. Ties at bestLen pass the test and reach cheaper as before.
func (m *matcher) bestMatch(i, lastRef, floor int) (length, pos int) {
	t := m.target
	if i+MinMatch > len(t) {
		return 0, 0
	}
	limit := min(len(t)-i, maxMatch)
	if limit < floor {
		return 0, 0
	}
	c := int(m.table[seedHash(t[i:])]) // > 0: the seed at i was counted
	ref, refLen := m.ref, len(m.ref)
	cur := t[i:]
	need := floor
	want := binary.LittleEndian.Uint32(cur[need-MinMatch:])
	bestLen, bestPos := 0, -1
	run := m.slots[max(c-maxChain, 0):c]
	for k := len(run) - 1; k >= 0; k-- {
		pos := int(run[k])
		if pos < 0 {
			break // the sentinel: the bucket has no older position
		}
		var src []byte
		if pos < refLen {
			src = ref[pos:]
		} else {
			// A target position is strictly before i: the parse has
			// inserted nothing at or after it.
			src = t[pos-refLen:]
		}
		if len(src) < need || binary.LittleEndian.Uint32(src[need-MinMatch:]) != want {
			continue
		}
		l := matchLen(src, cur, limit)
		if l < need {
			continue
		}
		if l > bestLen || cheaper(pos, bestPos, lastRef, i, refLen) {
			bestLen, bestPos = l, pos
			if bestLen >= limit {
				break
			}
			need = bestLen
			want = binary.LittleEndian.Uint32(cur[need-MinMatch:])
		}
	}
	return bestLen, bestPos
}

// cheaper reports whether virtual position a is cheaper to address than b.
func cheaper(a, b, lastRef, i, refLen int) bool {
	return addrCost(a, lastRef, i, refLen) < addrCost(b, lastRef, i, refLen)
}

func addrCost(p, lastRef, i, refLen int) int {
	if p < refLen {
		return bits.Len(uint(zigzag(p - lastRef)))
	}
	return bits.Len(uint(i - (p - refLen)))
}

// Parse produces the operation stream encoding target relative to ref:
// a greedy LZ parse (with one-step lazy matching) over a seed index of the
// reference and the emitted target prefix. The caller owns the result.
func Parse(ref, target []byte) []Op {
	m := acquire(ref, target)
	defer m.release()
	copies := m.parse()
	ops := make([]Op, 0, 2*len(copies)+1)
	at := 0
	for _, c := range copies {
		if c.lit > 0 {
			ops = append(ops, Op{Literal: target[at : at+int(c.lit)]})
			at += int(c.lit)
		}
		op := Op{Length: int(c.length), FromRef: c.src >= 0, RefPos: int(c.src), Dist: at - int(c.src)}
		if !op.FromRef {
			op.RefPos, op.Dist = at+int(c.src), -int(c.src)
		}
		ops = append(ops, op)
		at += op.Length
	}
	if at < len(target) {
		ops = append(ops, Op{Literal: target[at:]})
	}
	return ops
}

// parse is the greedy parse into m's own copy records, valid until release.
func (m *matcher) parse() []copyOp {
	target := m.target
	copies := m.copies[:0]
	lastRef := 0
	litStart := 0
	i := 0
	for i < len(target) {
		l, pos := m.bestMatch(i, lastRef, MinMatch)
		if l == 0 {
			m.insert(i)
			i++
			continue
		}
		// One-step lazy: a match starting at i+1 wins if it is longer by two
		// or more, so shorter ones need not be found.
		if l2, pos2 := m.bestMatch(i+1, lastRef, l+2); l2 > 0 {
			m.insert(i)
			i++
			l, pos = l2, pos2
		}
		if pos < len(m.ref) {
			lastRef = pos + l
		} else {
			pos -= len(m.ref) + i // a self copy: minus the distance back
		}
		copies = append(copies, copyOp{lit: uint32(i - litStart), length: uint32(l), src: int32(pos)})
		// Every position inside the match is indexed too: O(n) all the same,
		// and later matches are better for it.
		end := i + l
		for q := i; q < end; q++ {
			m.insert(q)
		}
		i = end
		litStart = i
	}
	m.copies = copies
	return copies
}

// Encode produces a delta of target relative to ref.
func Encode(ref, target []byte) []byte {
	m := acquire(ref, target)
	defer m.release()
	copies := m.parse()

	// Pass 1: frequencies. Offsets need the same lastRef walk as emission.
	mainFreq, offFreq := m.mainFreq[:], m.offFreq[:]
	mainFreq[symEOB]++
	at, lastRef := 0, 0
	for _, c := range copies {
		for _, b := range target[at : at+int(c.lit)] {
			mainFreq[b]++
		}
		at += int(c.lit + c.length)
		lc, _, _ := bucket(int(c.length) - MinMatch)
		mainFreq[symLenBase+lc]++
		oc, _, _ := bucket(c.offset(&lastRef))
		offFreq[oc]++
	}
	for _, b := range target[at:] {
		mainFreq[b]++
	}

	mainCode, err := huffman.Build(mainFreq)
	if err != nil {
		panic(err) // alphabet sizes are compile-time constants well under limits
	}
	offCode, err := huffman.Build(offFreq)
	if err != nil {
		panic(err)
	}

	// Pass 2: emit.
	w := bitio.NewWriter(len(target)/2 + 64)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(target)))
	w.WriteBytes(hdr[:n])
	w.WriteBytes([]byte{modeHuffman})
	mainCode.WriteTable(w)
	offCode.WriteTable(w)

	at, lastRef = 0, 0
	for _, c := range copies {
		for _, b := range target[at : at+int(c.lit)] {
			mustEncode(mainCode, w, int(b))
		}
		at += int(c.lit + c.length)
		lc, nb, ev := bucket(int(c.length) - MinMatch)
		mustEncode(mainCode, w, symLenBase+lc)
		w.WriteBits(ev, nb)
		w.WriteBit(c.src >= 0)
		oc, onb, oev := bucket(c.offset(&lastRef))
		mustEncodeOff(offCode, w, oc)
		w.WriteBits(oev, onb)
	}
	for _, b := range target[at:] {
		mustEncode(mainCode, w, int(b))
	}
	mustEncode(mainCode, w, symEOB)
	out := w.Bytes()
	// Stored fallback: incompressible targets (or tiny ones dominated by
	// table overhead) are shipped raw, bounding expansion to the header.
	if len(out) >= len(target)+storedOverhead(len(target)) {
		return stored(target)
	}
	return out
}

// stored is target in the stored mode.
func stored(target []byte) []byte {
	raw := make([]byte, 0, len(target)+storedOverhead(len(target)))
	raw = binary.AppendUvarint(raw, uint64(len(target)))
	raw = append(raw, modeStored)
	return append(raw, target...)
}

// offset is the value c's source is coded as: a self copy's distance, or a
// reference copy's position as a zigzag delta from *lastRef, the end of the
// previous reference copy, which it advances.
func (c copyOp) offset(lastRef *int) int {
	if c.src < 0 {
		return -int(c.src)
	}
	v := zigzag(int(c.src) - *lastRef)
	*lastRef = int(c.src) + int(c.length)
	return v
}

// Encoding modes: the byte after the target-length varint.
const (
	modeHuffman byte = 0
	modeStored  byte = 1
)

// storedOverhead is the header size of a stored-mode delta.
func storedOverhead(targetLen int) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], uint64(targetLen)) + 1
}

func mustEncode(c *huffman.Code, w *bitio.Writer, sym int) {
	if err := c.Encode(w, sym); err != nil {
		panic(fmt.Sprintf("delta: encode %d: %v", sym, err))
	}
}

func mustEncodeOff(c *huffman.Code, w *bitio.Writer, sym int) {
	if err := c.Encode(w, sym); err != nil {
		panic(fmt.Sprintf("delta: encode offset %d: %v", sym, err))
	}
}

// Decode reconstructs the target from ref and a delta produced by Encode. The
// length a stream declares (up to 4 GiB) only bounds the output: the buffer
// starts at no more than 64 bytes per input byte and grows as ops produce
// output, so a short stream declaring a long target costs its ops, not its
// claim. A caller that knows the length beforehand uses DecodeLen.
func Decode(ref, enc []byte) ([]byte, error) {
	targetLen, n := binary.Uvarint(enc)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	if targetLen > 1<<32 {
		return nil, fmt.Errorf("delta: implausible target length %d", targetLen)
	}
	if len(enc) <= n {
		return nil, ErrCorrupt
	}
	switch enc[n] {
	case modeStored:
		body := enc[n+1:]
		if uint64(len(body)) != targetLen {
			return nil, ErrCorrupt
		}
		return append([]byte(nil), body...), nil
	case modeHuffman, mode2:
		// the entropy-coded paths
	default:
		return nil, fmt.Errorf("delta: unknown mode %d", enc[n])
	}
	r := bitio.NewReader(enc[n+1:])
	out := make([]byte, 0, min(targetLen, 64*uint64(len(enc))+4096))
	if enc[n] == mode2 {
		return decode2(ref, r, targetLen, out)
	}
	mainDec, err := huffman.ReadTable(r)
	if err != nil {
		return nil, fmt.Errorf("delta: main table: %w", err)
	}
	offDec, err := huffman.ReadTable(r)
	if err != nil {
		return nil, fmt.Errorf("delta: offset table: %w", err)
	}
	lastRef := 0
	for uint64(len(out)) < targetLen {
		sym, err := mainDec.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("delta: %w", err)
		}
		switch {
		case sym < 256:
			out = append(out, byte(sym))
		case sym == symEOB:
			return nil, ErrCorrupt // premature EOB
		default:
			d, err := unbucket(sym-symLenBase, r)
			if err != nil {
				return nil, err
			}
			length := d + MinMatch
			fromRef, err := r.ReadBit()
			if err != nil {
				return nil, err
			}
			oc, err := offDec.Decode(r)
			if err != nil {
				return nil, err
			}
			v, err := unbucket(oc, r)
			if err != nil {
				return nil, err
			}
			if uint64(len(out))+uint64(length) > targetLen {
				return nil, ErrCorrupt
			}
			if fromRef {
				pos := lastRef + unzigzag(v)
				if pos < 0 || pos+length > len(ref) {
					return nil, ErrCorrupt
				}
				out = append(out, ref[pos:pos+length]...)
				lastRef = pos + length
			} else {
				if v <= 0 || v > len(out) {
					return nil, ErrCorrupt
				}
				out = selfCopy(out, v, length)
			}
		}
	}
	sym, err := mainDec.Decode(r)
	if err != nil || sym != symEOB {
		return nil, ErrCorrupt
	}
	return out, nil
}

// selfCopy appends length bytes copied from dist back in out (0 < dist <=
// len(out)). A source that ends before the copy starts is one slice copy;
// an overlapping one, which repeats the last dist bytes, goes byte by byte.
func selfCopy(out []byte, dist, length int) []byte {
	start := len(out) - dist
	if dist >= length {
		return append(out, out[start:start+length]...)
	}
	for k := 0; k < length; k++ {
		out = append(out, out[start+k])
	}
	return out
}

// DecodeLen is Decode for a caller that knows how long the target must be:
// a stream declaring any other length is ErrCorrupt, before anything is
// allocated for it.
func DecodeLen(ref, enc []byte, targetLen int) ([]byte, error) {
	if declared, n := binary.Uvarint(enc); n <= 0 || targetLen < 0 || declared != uint64(targetLen) {
		return nil, ErrCorrupt
	}
	return Decode(ref, enc)
}

// CompressedSize returns the encoded size of target against ref without
// retaining the encoding. Used by cost-model experiments.
func CompressedSize(ref, target []byte) int {
	return len(Encode(ref, target))
}

// Compress is self-referential compression (no external reference).
func Compress(data []byte) []byte { return Encode(nil, data) }

// Decompress reverses Compress.
func Decompress(enc []byte) ([]byte, error) { return Decode(nil, enc) }
