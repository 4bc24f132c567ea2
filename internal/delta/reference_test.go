package delta

// The encoder exactly as it stood before the match-finder became reusable
// scratch (commit 48c6d22): a fresh head table, two chain arrays, op slice and
// frequency tables per call. Frozen here as the reference the differential
// tests compare Encode against byte for byte; do not "tidy" it.

import (
	"encoding/binary"

	"msync/internal/bitio"
	"msync/internal/huffman"
)

// refIndex is a hash-chain match index over a virtual address space:
// positions [0, len(ref)) are reference bytes, positions >= len(ref) are
// target bytes (at pos-len(ref)).
type refIndex struct {
	ref, target []byte
	head        []int32
	prev        []int32 // chains for target positions only
	refPrev     []int32 // chains for ref positions
}

func refNewIndex(ref, target []byte) *refIndex {
	ix := &refIndex{
		ref:    ref,
		target: target,
		head:   make([]int32, 1<<hashBits),
	}
	for i := range ix.head {
		ix.head[i] = -1
	}
	if len(ref) >= MinMatch {
		ix.refPrev = make([]int32, len(ref))
		for i := 0; i+MinMatch <= len(ref); i++ {
			h := seedHash(ref[i:])
			ix.refPrev[i] = ix.head[h]
			ix.head[h] = int32(i)
		}
	}
	ix.prev = make([]int32, len(target))
	return ix
}

// insert adds target position q to the index.
func (ix *refIndex) insert(q int) {
	if q+MinMatch > len(ix.target) {
		return
	}
	h := seedHash(ix.target[q:])
	ix.prev[q] = ix.head[h]
	ix.head[h] = int32(len(ix.ref) + q)
}

// at returns the byte slice starting at virtual position p.
func (ix *refIndex) at(p int) []byte {
	if p < len(ix.ref) {
		return ix.ref[p:]
	}
	return ix.target[p-len(ix.ref):]
}

// chainNext follows the hash chain from virtual position p.
func (ix *refIndex) chainNext(p int) int32 {
	if p < len(ix.ref) {
		return ix.refPrev[p]
	}
	return ix.prev[p-len(ix.ref)]
}

// bestMatch finds the longest match for target[i:] in the index.
// lastRef biases tie-breaks toward cheap-to-address ref positions.
func (ix *refIndex) bestMatch(i, lastRef int) (length int, fromRef bool, srcPos int) {
	t := ix.target
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
	for p := ix.head[h]; p >= 0 && tries > 0; p = ix.chainNext(int(p)) {
		tries--
		pos := int(p)
		var l int
		if pos >= len(ix.ref) {
			// Target self-copy: source must be strictly before i.
			q := pos - len(ix.ref)
			if q >= i {
				continue
			}
			l = matchLen(t[q:], t[i:], limit)
		} else {
			l = matchLen(ix.ref[pos:], t[i:], limit)
		}
		if l > bestLen || (l == bestLen && bestPos >= 0 && cheaper(pos, bestPos, lastRef, i, len(ix.ref))) {
			bestLen, bestPos = l, pos
		}
		if bestLen >= limit {
			break
		}
	}
	if bestLen < MinMatch {
		return 0, false, 0
	}
	if bestPos < len(ix.ref) {
		return bestLen, true, bestPos
	}
	return bestLen, false, bestPos - len(ix.ref)
}

// refParse produces the operation stream encoding target relative to ref:
// a greedy LZ parse (with one-step lazy matching) over a hash-chain index
// of the reference and the emitted target prefix.
func refParse(ref, target []byte) []Op {
	var ops []Op
	ix := refNewIndex(ref, target)
	lastRef := 0
	litStart := 0
	i := 0
	flushLit := func(end int) {
		if end > litStart {
			ops = append(ops, Op{Literal: target[litStart:end]})
		}
	}
	for i < len(target) {
		l, fromRef, pos := ix.bestMatch(i, lastRef)
		if l >= MinMatch {
			// One-step lazy: a longer match starting at i+1 wins.
			if i+1 < len(target) {
				l2, fr2, pos2 := ix.bestMatch(i+1, lastRef)
				if l2 > l+1 {
					ix.insert(i)
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
				ix.insert(q)
			}
			if fromRef {
				lastRef = pos + l
			}
			i = end
			litStart = i
			continue
		}
		ix.insert(i)
		i++
	}
	flushLit(len(target))
	return ops
}

// refEncode produces a delta of target relative to ref.
func refEncode(ref, target []byte) []byte {
	ops := refParse(ref, target)

	// Pass 1: frequencies.
	mainFreq := make([]int64, mainAlphabet)
	offFreq := make([]int64, numOffCodes)
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
