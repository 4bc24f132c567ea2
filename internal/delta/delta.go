// Package delta implements a reference-based delta compressor and
// decompressor — this repository's stand-in for the zdelta/vcdiff tools the
// paper uses (see DESIGN.md, substitutions table).
//
// Encode(ref, target) produces a compact encoding of target that Decode can
// reconstruct given the same ref. The encoder runs an LZ77-style greedy parse
// (with one-step lazy matching) over a hash-chain index covering both the
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
	// maxChain bounds hash-chain traversal per position.
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

// unbucket reverses bucket given the code and a bit reader for extras.
func unbucket(code int, r *bitio.Reader) (int, error) {
	if code < 8 {
		return code, nil
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
// hash-chain index over a virtual address space — positions [0, len(ref)) are
// reference bytes, positions >= len(ref) are target bytes (at pos-len(ref)) —
// plus the op slice and frequency tables of one parse. Matchers are pooled
// (see matcherPool), so what an encode costs beyond its own input is a seed
// replay, not a fresh 512 KB head table.
type matcher struct {
	ref, target []byte
	head        []int32 // 1<<hashBits seed buckets; all -1 between uses
	chain       []int32 // previous position with the same seed, by virtual position
	ops         []Op
	mainFreq    [mainAlphabet]int64
	offFreq     [numOffCodes]int64
}

const (
	// replayMax is the input size (ref + target bytes) up to which release
	// empties the head table by rehashing the seeds it inserted, O(input);
	// above it a full clear, O(table), is cheaper. BenchmarkHeadReset
	// measures both sides; EXPERIMENTS.md records the crossover.
	replayMax = 1 << (hashBits - 2)
	// maxRetainedChain and maxRetainedOps cap what a pooled matcher keeps
	// besides its head table: a larger chain array or op slice is dropped on
	// release, so files up to 1 MB reuse their chains while a 2 MB file
	// (8 MB of chain) cannot pin that for the rest of the process. A pooled
	// matcher holds at most ~5 MB: 512 KB of head table, 4 MB of chain,
	// 450 KB of ops.
	maxRetainedChain = 1 << 20
	maxRetainedOps   = 1 << 13
)

// matcherPool hands each encoding goroutine a private matcher for the span of
// one Parse/Encode call; nothing in a matcher outlives the call that took it.
var matcherPool = sync.Pool{
	New: func() any {
		m := &matcher{head: make([]int32, 1<<hashBits)}
		m.clearHead()
		return m
	},
}

// acquire takes a matcher from the pool and indexes ref. Chain entries are
// written before they can be reached from head, so the chain array is reused
// without clearing.
func acquire(ref, target []byte) *matcher {
	m := matcherPool.Get().(*matcher)
	m.ref, m.target = ref, target
	if n := len(ref) + len(target); cap(m.chain) < n {
		m.chain = make([]int32, n)
	} else {
		m.chain = m.chain[:n]
	}
	for i := 0; i+MinMatch <= len(ref); i++ {
		h := seedHash(ref[i:])
		m.chain[i] = m.head[h]
		m.head[h] = int32(i)
	}
	return m
}

// release restores the all-empty head table, zeroes the frequency tables,
// drops references to the caller's buffers and oversized scratch, and returns
// m to the pool. Every position the parse indexed lies in ref or target, so
// rehashing both finds every bucket that was written.
func (m *matcher) release() {
	if len(m.ref)+len(m.target) <= replayMax {
		m.unseed(m.ref)
		m.unseed(m.target)
	} else {
		m.clearHead()
	}
	m.mainFreq = [mainAlphabet]int64{}
	m.offFreq = [numOffCodes]int64{}
	m.ref, m.target = nil, nil
	if cap(m.chain) > maxRetainedChain {
		m.chain = nil
	}
	if cap(m.ops) > maxRetainedOps {
		m.ops = nil
	} else {
		clear(m.ops) // literals alias the caller's target
		m.ops = m.ops[:0]
	}
	matcherPool.Put(m)
}

// unseed empties every head bucket a seed of p can have been put in.
func (m *matcher) unseed(p []byte) {
	for i := 0; i+MinMatch <= len(p); i++ {
		m.head[seedHash(p[i:])] = -1
	}
}

func (m *matcher) clearHead() {
	for i := range m.head {
		m.head[i] = -1
	}
}

// insert adds target position q to the index.
func (m *matcher) insert(q int) {
	if q+MinMatch > len(m.target) {
		return
	}
	h := seedHash(m.target[q:])
	p := len(m.ref) + q
	m.chain[p] = m.head[h]
	m.head[h] = int32(p)
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

// bestMatch finds the longest match for target[i:] in the index.
// lastRef biases tie-breaks toward cheap-to-address ref positions.
func (m *matcher) bestMatch(i, lastRef int) (length int, fromRef bool, srcPos int) {
	t := m.target
	if i+MinMatch > len(t) {
		return 0, false, 0
	}
	h := seedHash(t[i:])
	limit := len(t) - i
	if limit > maxMatch {
		limit = maxMatch
	}
	bestLen := 0
	bestPos := -1
	tries := maxChain
	for p := m.head[h]; p >= 0 && tries > 0; p = m.chain[p] {
		tries--
		pos := int(p)
		var l int
		if pos >= len(m.ref) {
			// Target self-copy: source must be strictly before i.
			q := pos - len(m.ref)
			if q >= i {
				continue
			}
			l = matchLen(t[q:], t[i:], limit)
		} else {
			l = matchLen(m.ref[pos:], t[i:], limit)
		}
		if l > bestLen || (l == bestLen && bestPos >= 0 && cheaper(pos, bestPos, lastRef, i, len(m.ref))) {
			bestLen, bestPos = l, pos
		}
		if bestLen >= limit {
			break
		}
	}
	if bestLen < MinMatch {
		return 0, false, 0
	}
	if bestPos < len(m.ref) {
		return bestLen, true, bestPos
	}
	return bestLen, false, bestPos - len(m.ref)
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
// a greedy LZ parse (with one-step lazy matching) over a hash-chain index
// of the reference and the emitted target prefix. The caller owns the result.
func Parse(ref, target []byte) []Op {
	m := acquire(ref, target)
	defer m.release()
	return append([]Op(nil), m.parse()...)
}

// parse is Parse into m's own op slice, valid until release.
func (m *matcher) parse() []Op {
	target := m.target
	ops := m.ops[:0]
	lastRef := 0
	litStart := 0
	i := 0
	flushLit := func(end int) {
		if end > litStart {
			ops = append(ops, Op{Literal: target[litStart:end]})
		}
	}
	for i < len(target) {
		l, fromRef, pos := m.bestMatch(i, lastRef)
		if l >= MinMatch {
			// One-step lazy: a longer match starting at i+1 wins.
			if i+1 < len(target) {
				l2, fr2, pos2 := m.bestMatch(i+1, lastRef)
				if l2 > l+1 {
					m.insert(i)
					i++
					l, fromRef, pos = l2, fr2, pos2
				}
			}
			flushLit(i)
			ops = append(ops, Op{Length: l, FromRef: fromRef, RefPos: pos, Dist: i - pos})
			// Index a sample of positions inside the match. Indexing every
			// position is O(n) anyway and improves later matches.
			end := i + l
			for q := i; q < end; q++ {
				m.insert(q)
			}
			if fromRef {
				lastRef = pos + l
			}
			i = end
			litStart = i
			continue
		}
		m.insert(i)
		i++
	}
	flushLit(len(target))
	m.ops = ops
	return ops
}

// Encode produces a delta of target relative to ref.
func Encode(ref, target []byte) []byte {
	m := acquire(ref, target)
	defer m.release()
	ops := m.parse()

	// Pass 1: frequencies.
	mainFreq, offFreq := m.mainFreq[:], m.offFreq[:]
	mainFreq[symEOB]++
	for _, o := range ops {
		if o.Literal != nil {
			for _, b := range o.Literal {
				mainFreq[b]++
			}
			continue
		}
		c, _, _ := bucket(o.Length - MinMatch)
		mainFreq[symLenBase+c]++
	}
	// Offsets need the same lastRef walk as emission; do it once here.
	lastRef := 0
	for _, o := range ops {
		if o.Literal != nil {
			continue
		}
		var v int
		if o.FromRef {
			v = zigzag(o.RefPos - lastRef)
			lastRef = o.RefPos + o.Length
		} else {
			v = o.Dist
		}
		c, _, _ := bucket(v)
		offFreq[c]++
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

	lastRef = 0
	for _, o := range ops {
		if o.Literal != nil {
			for _, b := range o.Literal {
				mustEncode(mainCode, w, int(b))
			}
			continue
		}
		c, nb, ev := bucket(o.Length - MinMatch)
		mustEncode(mainCode, w, symLenBase+c)
		w.WriteBits(ev, nb)
		w.WriteBit(o.FromRef)
		var v int
		if o.FromRef {
			v = zigzag(o.RefPos - lastRef)
			lastRef = o.RefPos + o.Length
		} else {
			v = o.Dist
		}
		oc, onb, oev := bucket(v)
		mustEncodeOff(offCode, w, oc)
		w.WriteBits(oev, onb)
	}
	mustEncode(mainCode, w, symEOB)
	out := w.Bytes()
	// Stored fallback: incompressible targets (or tiny ones dominated by
	// table overhead) are shipped raw, bounding expansion to the header.
	if len(out) >= len(target)+storedOverhead(len(target)) {
		raw := make([]byte, 0, len(target)+storedOverhead(len(target)))
		raw = binary.AppendUvarint(raw, uint64(len(target)))
		raw = append(raw, modeStored)
		return append(raw, target...)
	}
	return out
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

// Decode reconstructs the target from ref and a delta produced by Encode.
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
	case modeHuffman:
		// fall through to the entropy-coded path
	default:
		return nil, fmt.Errorf("delta: unknown mode %d", enc[n])
	}
	r := bitio.NewReader(enc[n+1:])
	mainDec, err := huffman.ReadTable(r)
	if err != nil {
		return nil, fmt.Errorf("delta: main table: %w", err)
	}
	offDec, err := huffman.ReadTable(r)
	if err != nil {
		return nil, fmt.Errorf("delta: offset table: %w", err)
	}
	out := make([]byte, 0, targetLen)
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
				start := len(out) - v
				if start < 0 || v == 0 {
					return nil, ErrCorrupt
				}
				// Byte-wise copy: overlapping self-copies are legal.
				for k := 0; k < length; k++ {
					out = append(out, out[start+k])
				}
			}
		}
	}
	sym, err := mainDec.Decode(r)
	if err != nil || sym != symEOB {
		return nil, ErrCorrupt
	}
	return out, nil
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
