// Package huffman implements canonical Huffman coding, the entropy stage of
// the delta compressor in internal/delta (our zdelta substitute).
//
// Codes are canonical: only the code lengths cross the wire; both sides
// derive identical codewords from the lengths. Lengths are capped at
// MaxCodeLen by frequency flattening, the standard zlib-style trick.
package huffman

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"slices"

	"msync/internal/bitio"
)

// MaxCodeLen is the maximum codeword length in bits.
const MaxCodeLen = 32

// MaxSymbols bounds the alphabet size accepted by Build and ReadTable.
const MaxSymbols = 1 << 16

var (
	// ErrNoSymbols is returned by Encode when the code is empty.
	ErrNoSymbols = errors.New("huffman: code has no symbols")
	// ErrBadTable is returned when a decoded length table is invalid.
	ErrBadTable = errors.New("huffman: invalid code length table")
)

// Code holds a canonical Huffman code for symbols 0..n-1.
type Code struct {
	lengths []uint8  // lengths[sym], 0 = symbol unused
	codes   []uint32 // canonical codewords, valid where lengths[sym] > 0
}

type buildNode struct {
	freq        int64
	sym         int // -1 for internal
	left, right int // indices into node slice, -1 for leaves
}

type nodeHeap struct {
	nodes []buildNode
	order []int
}

func (h *nodeHeap) Len() int { return len(h.order) }
func (h *nodeHeap) Less(i, j int) bool {
	a, b := h.nodes[h.order[i]], h.nodes[h.order[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	// Tie-break on index for determinism.
	return h.order[i] < h.order[j]
}
func (h *nodeHeap) Swap(i, j int) { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *nodeHeap) Push(x any)    { h.order = append(h.order, x.(int)) }
func (h *nodeHeap) Pop() any {
	old := h.order
	n := len(old)
	v := old[n-1]
	h.order = old[:n-1]
	return v
}

// Build constructs a canonical code from symbol frequencies. Symbols with
// zero frequency get no codeword. If every frequency is zero the resulting
// code is empty (valid only for empty streams).
func Build(freq []int64) (*Code, error) { return BuildLimit(freq, MaxCodeLen) }

// BuildLimit is Build with codewords of at most maxLen bits (1..MaxCodeLen),
// for formats that code the lengths in a small alphabet. An alphabet with more
// used symbols than maxLen bits can number gets ErrBadTable.
func BuildLimit(freq []int64, maxLen int) (*Code, error) {
	if len(freq) > MaxSymbols {
		return nil, fmt.Errorf("huffman: %d symbols exceeds maximum %d", len(freq), MaxSymbols)
	}
	if maxLen < 1 || maxLen > MaxCodeLen {
		return nil, fmt.Errorf("huffman: code length limit %d outside 1..%d", maxLen, MaxCodeLen)
	}
	used := 0
	for _, f := range freq {
		if f > 0 {
			used++
		}
	}
	if uint64(used) > 1<<uint64(maxLen) { // 1<<32 overflows a 32-bit int
		return nil, ErrBadTable
	}
	lengths := computeLengths(freq, used)
	for tooLong(lengths, maxLen) {
		freq = flatten(freq)
		lengths = computeLengths(freq, used)
	}
	c := &Code{lengths: lengths}
	c.assignCodes(used)
	return c, nil
}

// computeLengths runs the Huffman algorithm over freq, used of whose
// symbols are nonzero, and returns code lengths.
func computeLengths(freq []int64, used int) []uint8 {
	lengths := make([]uint8, len(freq))
	nodes := make([]buildNode, 0, max(2*used-1, 0))
	h := &nodeHeap{order: make([]int, 0, used)}
	for sym, f := range freq {
		if f > 0 {
			nodes = append(nodes, buildNode{freq: f, sym: sym, left: -1, right: -1})
			h.order = append(h.order, len(nodes)-1)
		}
	}
	switch len(h.order) {
	case 0:
		return lengths
	case 1:
		lengths[nodes[h.order[0]].sym] = 1
		return lengths
	}
	h.nodes = nodes
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(int)
		b := heap.Pop(h).(int)
		h.nodes = append(h.nodes, buildNode{
			freq: h.nodes[a].freq + h.nodes[b].freq,
			sym:  -1, left: a, right: b,
		})
		heap.Push(h, len(h.nodes)-1)
	}
	root := h.order[0]
	// Iterative DFS assigning depths.
	type frame struct {
		node  int
		depth uint8
	}
	stack := make([]frame, 1, used+1)
	stack[0] = frame{root, 0}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := h.nodes[f.node]
		if n.sym >= 0 {
			d := f.depth
			if d == 0 {
				d = 1
			}
			lengths[n.sym] = d
			continue
		}
		stack = append(stack, frame{n.left, f.depth + 1}, frame{n.right, f.depth + 1})
	}
	return lengths
}

func tooLong(lengths []uint8, maxLen int) bool {
	for _, l := range lengths {
		if int(l) > maxLen {
			return true
		}
	}
	return false
}

// flatten halves frequencies (keeping nonzero ones nonzero), reducing skew
// and therefore maximum code length.
func flatten(freq []int64) []int64 {
	out := make([]int64, len(freq))
	for i, f := range freq {
		if f > 0 {
			out[i] = (f + 1) / 2
		}
	}
	return out
}

// assignCodes derives canonical codewords from lengths, n of them nonzero.
func (c *Code) assignCodes(n int) {
	c.codes = make([]uint32, len(c.lengths))
	used := make([]symLen, 0, n)
	for sym, l := range c.lengths {
		if l > 0 {
			used = append(used, symLen{sym, l})
		}
	}
	slices.SortFunc(used, bySymLen)
	code := uint32(0)
	prevLen := uint8(0)
	for _, u := range used {
		code <<= u.l - prevLen
		c.codes[u.sym] = code
		code++
		prevLen = u.l
	}
}

// FromLengths is the canonical code of the given codeword lengths, for a
// format whose code is fixed rather than built from frequencies.
func FromLengths(lengths []uint8) (*Code, error) {
	if _, err := NewDecoder(lengths); err != nil {
		return nil, err
	}
	c := &Code{lengths: slices.Clone(lengths)}
	c.assignCodes(len(lengths))
	return c, nil
}

// Length reports the codeword length of sym (0 if unused).
func (c *Code) Length(sym int) int { return int(c.lengths[sym]) }

// Encode writes the codeword for sym.
func (c *Code) Encode(w *bitio.Writer, sym int) error {
	if sym < 0 || sym >= len(c.lengths) || c.lengths[sym] == 0 {
		return fmt.Errorf("huffman: symbol %d has no codeword", sym)
	}
	w.WriteBits(uint64(c.codes[sym]), uint(c.lengths[sym]))
	return nil
}

// WriteTable encodes the length table. Format: uvarint-ish symbol count in
// 16 bits, then run-length coded lengths: 6-bit length followed, for length
// zero, by a 8-bit extra run count.
func (c *Code) WriteTable(w *bitio.Writer) {
	w.WriteBits(uint64(len(c.lengths)), 16)
	i := 0
	for i < len(c.lengths) {
		l := c.lengths[i]
		w.WriteBits(uint64(l), 6)
		if l == 0 {
			// Count additional zero run (up to 255).
			run := 0
			for i+1+run < len(c.lengths) && run < 255 && c.lengths[i+1+run] == 0 {
				run++
			}
			w.WriteBits(uint64(run), 8)
			i += 1 + run
		} else {
			i++
		}
	}
}

// Decoder decodes canonical Huffman streams.
type Decoder struct {
	// For each length l in 1..MaxCodeLen:
	firstCode [MaxCodeLen + 1]uint32 // first canonical code of that length
	firstIdx  [MaxCodeLen + 1]int    // index into syms of that first code
	count     [MaxCodeLen + 1]int    // number of codes of that length
	syms      []int                  // symbols in canonical order
}

// ReadTable decodes a length table written by WriteTable and returns a
// Decoder. What it costs is bounded by the bits it is given, not by the symbol
// count they declare: each table entry reads at least 6 bits, and only the
// symbols that have a code are kept, so a count the bits cannot cover ends in
// the reader's EOF having cost no more than the input.
func ReadTable(r *bitio.Reader) (*Decoder, error) {
	nSym, err := r.ReadBits(16)
	if err != nil {
		return nil, err
	}
	var used []symLen
	for i := 0; i < int(nSym); {
		lv, err := r.ReadBits(6)
		if err != nil {
			return nil, err
		}
		if lv == 0 {
			run, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			i += 1 + int(run)
			if i > int(nSym) {
				return nil, ErrBadTable
			}
		} else {
			if lv > MaxCodeLen {
				return nil, ErrBadTable
			}
			used = append(used, symLen{i, uint8(lv)})
			i++
		}
	}
	return newDecoder(used)
}

// symLen is a symbol with a code and its code length.
type symLen struct {
	sym int
	l   uint8
}

// bySymLen orders symbols by code length, then by symbol: the canonical code
// order.
func bySymLen(a, b symLen) int {
	return cmp.Or(cmp.Compare(a.l, b.l), cmp.Compare(a.sym, b.sym))
}

// NewDecoder builds a Decoder directly from code lengths.
func NewDecoder(lengths []uint8) (*Decoder, error) {
	used := make([]symLen, 0, len(lengths))
	for sym, l := range lengths {
		if l > MaxCodeLen {
			return nil, ErrBadTable
		}
		if l > 0 {
			used = append(used, symLen{sym, l})
		}
	}
	return newDecoder(used)
}

// newDecoder builds a Decoder from the symbols that have a code.
func newDecoder(used []symLen) (*Decoder, error) {
	d := &Decoder{syms: make([]int, 0, len(used))}
	slices.SortFunc(used, bySymLen)
	code := uint64(0)
	prevLen := uint8(0)
	for idx, u := range used {
		code <<= u.l - prevLen
		if d.count[u.l] == 0 {
			d.firstCode[u.l] = uint32(code)
			d.firstIdx[u.l] = idx
		}
		d.count[u.l]++
		d.syms = append(d.syms, u.sym)
		code++
		prevLen = u.l
		// Kraft check: code must fit in u.l bits after increments.
		if code > 1<<u.l {
			return nil, ErrBadTable
		}
	}
	return d, nil
}

// Decode reads one symbol.
func (d *Decoder) Decode(r *bitio.Reader) (int, error) {
	if len(d.syms) == 0 {
		return 0, ErrNoSymbols
	}
	var code uint64
	for l := 1; l <= MaxCodeLen; l++ {
		b, err := r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		code = code<<1 | b
		if c := d.count[l]; c > 0 {
			first := uint64(d.firstCode[l])
			if code >= first && code < first+uint64(c) {
				return d.syms[d.firstIdx[l]+int(code-first)], nil
			}
		}
	}
	return 0, ErrBadTable
}
