package delta

import (
	"encoding/binary"
	"math/bits"

	"msync/internal/bitio"
	"msync/internal/huffman"
)

// Mode selects the format an encoder writes: the byte after the target
// length. A decoder reads every mode; which one a holder writes is the
// receiver's to ask for (PROTOCOL.md, "Hello extension 6").
type Mode byte

const (
	// Mode0 is the original format: a length-code symbol, a raw ref/self
	// bit, one offset alphabet with one code per power of two, and tables of
	// six bits a symbol. Journal blobs, the paper's tables and every peer
	// that does not ask for Mode2 get it.
	Mode0 Mode = Mode(modeHuffman)
	// Mode2 puts the copy kind (reference, self, or one of the last three
	// self distances) in the main symbol, codes reference deltas and self
	// distances in alphabets of their own with two codes per power of two,
	// codes its tables with a code-length code, and has a built-in code for
	// targets too small to pay for tables.
	Mode2 Mode = Mode(mode2)
)

// Encode encodes target against ref in mode m.
func (m Mode) Encode(ref, target []byte) []byte {
	if m == Mode2 {
		return encode2(ref, target)
	}
	return Encode(ref, target)
}

// Compress is self-referential compression in mode m.
func (m Mode) Compress(data []byte) []byte { return m.Encode(nil, data) }

// mode2 is Mode2's mode byte.
const mode2 byte = 2

// Mode 2's alphabets. A main symbol is a literal, EOB, or a copy: its kind
// and its length code, symCopyBase + kind*numLen2 + length code.
const (
	kindRef  = 0 // a reference copy; a ref-delta symbol follows
	kindSelf = 1 // a self copy at a new distance; a distance symbol follows
	kindRep0 = 2 // a self copy at the most recent self distance; rep1, rep2 the two before
	numKinds = 5
	numReps  = numKinds - kindRep0

	symCopyBase = symEOB + 1
	// numLen2 codes the lengths a copy can have: L-MinMatch < maxMatch.
	numLen2 = 42
	// numDist2 codes a reference delta (zigzagged) or a self distance
	// (minus one) below 1<<32.
	numDist2      = 66
	mainAlphabet2 = symCopyBase + numKinds*numLen2

	// maxLen2 is the longest codeword of mode 2's tables, so code lengths
	// fit the code-length alphabet: 0..15, then the three run symbols.
	maxLen2     = 15
	clRepeat    = 16 // the previous length 3..6 times (2 extra bits)
	clZeros     = 17 // 3..10 zero lengths (3 extra bits)
	clZerosLong = 18 // 11..138 zero lengths (7 extra bits)
	numCL       = 19
	maxCLLen    = 7 // a code-length codeword, sent in 3 bits
)

// clOrder is the order code-length codeword lengths are sent in, deflate's:
// the trailing ones, rarely used, are trimmed.
var clOrder = [numCL]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// bucket2 maps v >= 0 to a code: v itself below 8, then two codes per power
// of two, split on the bit below the leading one; the extra bits place v in
// its code.
func bucket2(v int) (code int, nb uint, ev uint64) {
	if v < 8 {
		return v, 0, 0
	}
	n := bits.Len(uint(v)) // >= 4
	return 8 + 2*(n-4) + (v>>(n-2))&1, uint(n - 2), uint64(v) & (1<<(n-2) - 1)
}

// unbucket2 reverses bucket2 for a code below limit.
func unbucket2(code, limit int, r *bitio.Reader) (int, error) {
	if code < 8 {
		return code, nil
	}
	if code >= limit {
		return 0, ErrCorrupt
	}
	n := (code-8)/2 + 4
	extra, err := r.ReadBits(uint(n - 2))
	if err != nil {
		return 0, err
	}
	return 1<<(n-1) | (code&1)<<(n-2) | int(extra), nil
}

// reps are the last three distinct self distances, most recent first: a copy
// at one of them costs its kind and length alone.
type reps struct {
	d [numReps]int
	n int // how many of d are set
}

// find returns the index of distance d among the reps, or -1.
func (r *reps) find(d int) int {
	for i := 0; i < r.n; i++ {
		if r.d[i] == d {
			return i
		}
	}
	return -1
}

// use moves rep i to the front.
func (r *reps) use(i int) {
	d := r.d[i]
	copy(r.d[1:i+1], r.d[:i])
	r.d[0] = d
}

// push puts a new distance in front.
func (r *reps) push(d int) {
	copy(r.d[1:], r.d[:numReps-1])
	r.d[0] = d
	r.n = min(r.n+1, numReps)
}

// selfKind is the kind a self copy at distance d is coded as, updating r as
// the decoder will: a rep, moved to the front, or a new distance, pushed.
func (r *reps) selfKind(d int) int {
	if i := r.find(d); i >= 0 {
		r.use(i)
		return kindRep0 + i
	}
	r.push(d)
	return kindSelf
}

// choice2 is a candidate copy at one position: its length, its source as in
// copyOp.src, and what it is worth in bits over coding its bytes as literals.
type choice2 struct {
	length, src, gain int
}

// Approximate costs the mode-2 parse weighs candidates by, in bits: a
// literal byte and a copy's symbol.
const (
	litBits2  = 5
	copyBits2 = 8
)

// gain2 is what copying length bytes at an address of addrBits saves.
func gain2(length, addrBits int) int { return length*litBits2 - copyBits2 - addrBits }

// best2 is the best copy at target position i that is worth more than
// floor: the longest at a rep distance, against the longest the chain finds,
// each weighed by the bits its address costs. gain 0: none.
func (m *matcher) best2(i, lastRef int, rp *reps, floor int) choice2 {
	t := m.target
	var c choice2
	if i+MinMatch > len(t) {
		return c
	}
	limit := min(len(t)-i, maxMatch)
	for k := 0; k < rp.n; k++ {
		d := rp.d[k]
		if d > i {
			continue
		}
		if l := matchLen(t[i-d:], t[i:], limit); l >= MinMatch {
			if g := gain2(l, 2*k); g > max(c.gain, floor) {
				c = choice2{l, -d, g}
			}
		}
	}
	// A chain match must beat the best gain so far even at no address cost.
	minLen := MinMatch
	if c.gain > 0 || floor > 0 {
		minLen = max(minLen, (max(c.gain, floor)+copyBits2)/litBits2+1)
	}
	if minLen > limit {
		return c
	}
	l, pos := m.bestMatch(i, lastRef, minLen)
	if l == 0 {
		return c
	}
	src := pos
	if pos >= len(m.ref) {
		src = -(i - (pos - len(m.ref)))
		if k := rp.find(-src); k >= 0 {
			if g := gain2(l, 2*k); g > max(c.gain, floor) {
				c = choice2{l, src, g}
			}
			return c
		}
	}
	if g := gain2(l, addrCost(pos, lastRef, i, len(m.ref))); g > max(c.gain, floor) {
		c = choice2{l, src, g}
	}
	return c
}

// parse2 is mode 2's parse: greedy with one-step lazy matching like parse,
// but each position tries the rep distances before the chain, and candidates
// are weighed by what their addresses cost.
func (m *matcher) parse2() []copyOp {
	target := m.target
	copies := m.copies[:0]
	var rp reps
	lastRef, litStart, i := 0, 0, 0
	for i < len(target) {
		c := m.best2(i, lastRef, &rp, 0)
		if c.gain <= 0 {
			m.insert(i)
			i++
			continue
		}
		// One-step lazy: a copy at i+1 wins if it is worth a literal more.
		if n := m.best2(i+1, lastRef, &rp, c.gain+litBits2); n.gain > 0 {
			m.insert(i)
			i++
			c = n
		}
		if c.src >= 0 {
			lastRef = c.src + c.length
		} else {
			rp.selfKind(-c.src)
		}
		copies = append(copies, copyOp{lit: uint32(i - litStart), length: uint32(c.length), src: int32(c.src)})
		end := i + c.length
		for q := i; q < end; q++ {
			m.insert(q)
		}
		i = end
		litStart = i
	}
	m.copies = copies
	return copies
}

// code2 is a copy as mode 2 codes it: the main symbol, the length's extra
// bits, and for a reference or new self copy the distance code and its
// extra bits (dist -1: none).
type code2 struct {
	sym, lnb, dist, dnb int
	lev, dev            uint64
}

// code2Of codes copy c, advancing *lastRef and rp as the decoder will.
func code2Of(c copyOp, lastRef *int, rp *reps) code2 {
	lc, lnb, lev := bucket2(int(c.length) - MinMatch)
	k := code2{lnb: int(lnb), lev: lev, dist: -1}
	kind := kindRef
	var v int
	if c.src >= 0 {
		v = zigzag(int(c.src) - *lastRef)
		*lastRef = int(c.src) + int(c.length)
	} else {
		kind = rp.selfKind(-int(c.src))
		v = -int(c.src) - 1
	}
	k.sym = symCopyBase + kind*numLen2 + lc
	if kind <= kindSelf {
		dc, dnb, dev := bucket2(v)
		k.dist, k.dnb, k.dev = dc, int(dnb), dev
	}
	return k
}

// tables2 are mode 2's three codes: main, reference deltas, self distances.
type tables2 struct {
	main, ref, self *huffman.Code
}

// encode2 is Encode in mode 2.
func encode2(ref, target []byte) []byte {
	m := acquire(ref, target)
	defer m.release()
	copies := m.parse2()

	main, refF, selfF := m.main2Freq[:], m.refFreq[:], m.selfFreq[:]
	main[symEOB]++
	at, lastRef := 0, 0
	var rp reps
	for _, c := range copies {
		for _, b := range target[at : at+int(c.lit)] {
			main[b]++
		}
		at += int(c.lit + c.length)
		k := code2Of(c, &lastRef, &rp)
		main[k.sym]++
		if k.dist >= 0 {
			if c.src >= 0 {
				refF[k.dist]++
			} else {
				selfF[k.dist]++
			}
		}
	}
	for _, b := range target[at:] {
		main[b]++
	}

	dyn := tables2{mustBuild2(main), mustBuild2(refF), mustBuild2(selfF)}
	toks := clTokens(dyn)
	var clFreq [numCL]int64
	for _, t := range toks {
		clFreq[t.sym]++
	}
	cl, err := huffman.BuildLimit(clFreq[:], maxCLLen)
	if err != nil {
		panic(err) // 19 symbols always fit 7 bits
	}
	hclen := numCL
	for hclen > 4 && cl.Length(int(clOrder[hclen-1])) == 0 {
		hclen--
	}
	// Choose the table from the counts alone: the dynamic tables cost their
	// header, the built-in code nothing; the extra bits are the same.
	dynBits := 1 + 8 + 7 + 7 + 4 + 3*hclen
	for _, t := range toks {
		dynBits += cl.Length(int(t.sym)) + int(clExtra[t.sym])
	}
	fixedBits := 1
	for _, f := range [...]struct {
		freq []int64
		dyn  *huffman.Code
		fix  []uint8
	}{{main, dyn.main, builtinMain[:]}, {refF, dyn.ref, builtinDist[:]}, {selfF, dyn.self, builtinDist[:]}} {
		for s, n := range f.freq {
			dynBits += int(n) * f.dyn.Length(s)
			fixedBits += int(n) * int(f.fix[s])
		}
	}

	w := bitio.NewWriter(len(target)/2 + 64)
	w.WriteBytes(binary.AppendUvarint(nil, uint64(len(target))))
	w.WriteBytes([]byte{mode2})
	codes := builtin2
	if dynBits < fixedBits {
		codes = dyn
		w.WriteBit(true)
		writeTables2(w, dyn, cl, toks, hclen)
	} else {
		w.WriteBit(false)
	}

	at, lastRef, rp = 0, 0, reps{}
	for _, c := range copies {
		for _, b := range target[at : at+int(c.lit)] {
			mustEncode(codes.main, w, int(b))
		}
		at += int(c.lit + c.length)
		k := code2Of(c, &lastRef, &rp)
		mustEncode(codes.main, w, k.sym)
		w.WriteBits(k.lev, uint(k.lnb))
		if k.dist >= 0 {
			dc := codes.self
			if c.src >= 0 {
				dc = codes.ref
			}
			mustEncodeOff(dc, w, k.dist)
			w.WriteBits(k.dev, uint(k.dnb))
		}
	}
	for _, b := range target[at:] {
		mustEncode(codes.main, w, int(b))
	}
	mustEncode(codes.main, w, symEOB)
	out := w.Bytes()
	if len(out) >= len(target)+storedOverhead(len(target)) {
		return stored(target)
	}
	return out
}

func mustBuild2(freq []int64) *huffman.Code {
	c, err := huffman.BuildLimit(freq, maxLen2)
	if err != nil {
		panic(err) // every alphabet of mode 2 fits 15 bits
	}
	return c
}

// clTok is one symbol of the code-length code and its extra bits.
type clTok struct{ sym, extra uint8 }

// clExtra is the extra bits each code-length symbol carries.
var clExtra = [numCL]uint8{clRepeat: 2, clZeros: 3, clZerosLong: 7}

// used2 is how many of a table's leading lengths are sent: up to its last
// nonzero one, and at least floor.
func used2(c *huffman.Code, n, floor int) int {
	for n > floor && c.Length(n-1) == 0 {
		n--
	}
	return n
}

// clTokens run-length codes the three tables' lengths, as one sequence, the
// way deflate does: runs of zeros in one symbol, a run of another length
// as the length and repeats of it.
func clTokens(t tables2) []clTok {
	var buf [mainAlphabet2 + 2*numDist2]uint8
	lens := buf[:0]
	for _, tb := range [...]struct {
		c        *huffman.Code
		n, floor int
	}{{t.main, mainAlphabet2, symCopyBase}, {t.ref, numDist2, 0}, {t.self, numDist2, 0}} {
		for s := range used2(tb.c, tb.n, tb.floor) {
			lens = append(lens, uint8(tb.c.Length(s)))
		}
	}
	toks := make([]clTok, 0, len(lens))
	for i := 0; i < len(lens); {
		l := lens[i]
		run := 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for run >= 11 {
				n := min(run, 138)
				toks = append(toks, clTok{clZerosLong, uint8(n - 11)})
				run -= n
			}
			if run >= 3 {
				toks = append(toks, clTok{clZeros, uint8(run - 3)})
				run = 0
			}
		} else {
			toks = append(toks, clTok{l, 0})
			run--
			for run >= 3 {
				n := min(run, 6)
				toks = append(toks, clTok{clRepeat, uint8(n - 3)})
				run -= n
			}
		}
		for ; run > 0; run-- {
			toks = append(toks, clTok{l, 0})
		}
	}
	return toks
}

// writeTables2 writes the dynamic tables: the three counts, the code-length
// code's lengths in clOrder, then the lengths themselves.
func writeTables2(w *bitio.Writer, t tables2, cl *huffman.Code, toks []clTok, hclen int) {
	w.WriteBits(uint64(used2(t.main, mainAlphabet2, symCopyBase)-symCopyBase), 8)
	w.WriteBits(uint64(used2(t.ref, numDist2, 0)), 7)
	w.WriteBits(uint64(used2(t.self, numDist2, 0)), 7)
	w.WriteBits(uint64(hclen-4), 4)
	for _, s := range clOrder[:hclen] {
		w.WriteBits(uint64(cl.Length(int(s))), 3)
	}
	for _, tk := range toks {
		mustEncode(cl, w, int(tk.sym))
		w.WriteBits(uint64(tk.extra), uint(clExtra[tk.sym]))
	}
}

// decoders2 are mode 2's three decoders.
type decoders2 struct {
	main, ref, self *huffman.Decoder
}

// readTables2 reads what writeTables2 wrote.
func readTables2(r *bitio.Reader) (decoders2, error) {
	var d decoders2
	hmain, err := r.ReadBits(8)
	if err != nil {
		return d, err
	}
	counts := [3]int{symCopyBase + int(hmain), 0, 0}
	for i := 1; i < 3; i++ {
		v, err := r.ReadBits(7)
		if err != nil {
			return d, err
		}
		counts[i] = int(v)
	}
	if counts[0] > mainAlphabet2 || counts[1] > numDist2 || counts[2] > numDist2 {
		return d, ErrCorrupt
	}
	hclen, err := r.ReadBits(4)
	if err != nil {
		return d, err
	}
	var clLens [numCL]uint8
	for _, s := range clOrder[:hclen+4] {
		v, err := r.ReadBits(3)
		if err != nil {
			return d, err
		}
		clLens[s] = uint8(v)
	}
	cl, err := huffman.NewDecoder(clLens[:])
	if err != nil {
		return d, ErrCorrupt
	}
	var lens [mainAlphabet2 + 2*numDist2]uint8
	total := counts[0] + counts[1] + counts[2]
	for i := 0; i < total; {
		s, err := cl.Decode(r)
		if err != nil {
			return d, err
		}
		if s < clRepeat {
			lens[i] = uint8(s)
			i++
			continue
		}
		extra, err := r.ReadBits(uint(clExtra[s]))
		if err != nil {
			return d, err
		}
		n, l := int(extra), uint8(0)
		switch s {
		case clRepeat:
			if i == 0 {
				return d, ErrCorrupt
			}
			n, l = n+3, lens[i-1]
		case clZeros:
			n += 3
		default:
			n += 11
		}
		if i+n > total {
			return d, ErrCorrupt
		}
		for k := range n {
			lens[i+k] = l
		}
		i += n
	}
	main, rest := lens[:counts[0]], lens[counts[0]:total]
	if d.main, err = huffman.NewDecoder(main); err != nil {
		return d, ErrCorrupt
	}
	if d.ref, err = huffman.NewDecoder(rest[:counts[1]]); err != nil {
		return d, ErrCorrupt
	}
	if d.self, err = huffman.NewDecoder(rest[counts[1]:]); err != nil {
		return d, ErrCorrupt
	}
	return d, nil
}

// decode2 decodes the ops of a mode-2 stream after its mode byte, appending
// to out up to targetLen bytes.
func decode2(ref []byte, r *bitio.Reader, targetLen uint64, out []byte) ([]byte, error) {
	dynamic, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	d := builtinDecoders2
	if dynamic {
		if d, err = readTables2(r); err != nil {
			return nil, err
		}
	}
	lastRef := 0
	var rp reps
	for uint64(len(out)) < targetLen {
		sym, err := d.main.Decode(r)
		if err != nil {
			return nil, err
		}
		if sym < symEOB {
			out = append(out, byte(sym))
			continue
		}
		if sym == symEOB {
			return nil, ErrCorrupt // premature EOB
		}
		kind, lc := (sym-symCopyBase)/numLen2, (sym-symCopyBase)%numLen2
		v, err := unbucket2(lc, numLen2, r)
		if err != nil {
			return nil, err
		}
		length := v + MinMatch
		if uint64(len(out))+uint64(length) > targetLen {
			return nil, ErrCorrupt
		}
		var dist int
		switch kind {
		case kindRef, kindSelf:
			dec := d.ref
			if kind == kindSelf {
				dec = d.self
			}
			dc, err := dec.Decode(r)
			if err != nil {
				return nil, err
			}
			if v, err = unbucket2(dc, numDist2, r); err != nil {
				return nil, err
			}
			if kind == kindRef {
				pos := lastRef + unzigzag(v)
				if pos < 0 || pos+length > len(ref) {
					return nil, ErrCorrupt
				}
				out = append(out, ref[pos:pos+length]...)
				lastRef = pos + length
				continue
			}
			dist = v + 1
			rp.push(dist)
		default:
			i := kind - kindRep0
			if i >= rp.n {
				return nil, ErrCorrupt // no such distance yet
			}
			dist = rp.d[i]
			rp.use(i)
		}
		// A distance coded at the top of the alphabet is not an int of 32
		// bits: on such a platform it wraps below 1.
		if dist <= 0 || dist > len(out) {
			return nil, ErrCorrupt
		}
		out = selfCopy(out, dist, length)
	}
	if sym, err := d.main.Decode(r); err != nil || sym != symEOB {
		return nil, ErrCorrupt
	}
	return out, nil
}

// The built-in code: lengths fixed by the format, for targets whose tables
// would cost more than they save.
var (
	builtinMain      [mainAlphabet2]uint8
	builtinDist      [numDist2]uint8
	builtin2         tables2
	builtinDecoders2 decoders2
)

func init() {
	for s := range builtinMain {
		switch {
		case s >= 'a' && s <= 'z', s == ' ', s == '\n':
			builtinMain[s] = 7
		case s >= 0x21 && s <= 0x7E, s == '\t':
			builtinMain[s] = 9
		case s < 256:
			builtinMain[s] = 11
		case s >= symCopyBase:
			kind, lc := (s-symCopyBase)/numLen2, (s-symCopyBase)%numLen2
			switch {
			case kind <= kindRep0 && lc < 8:
				builtinMain[s] = 6
			case lc < 8:
				builtinMain[s] = 8
			default:
				builtinMain[s] = 12
			}
		default:
			builtinMain[s] = 12
		}
	}
	for s := range builtinDist {
		switch {
		case s < 8:
			builtinDist[s] = 4
		case s < 40:
			builtinDist[s] = 7
		default:
			builtinDist[s] = 8
		}
	}
	builtin2 = tables2{mustFixed(builtinMain[:]), mustFixed(builtinDist[:]), mustFixed(builtinDist[:])}
	main, err1 := huffman.NewDecoder(builtinMain[:])
	dist, err2 := huffman.NewDecoder(builtinDist[:])
	if err1 != nil || err2 != nil {
		panic("delta: built-in code over-subscribed")
	}
	builtinDecoders2 = decoders2{main, dist, dist}
}

func mustFixed(lengths []uint8) *huffman.Code {
	c, err := huffman.FromLengths(lengths)
	if err != nil {
		panic("delta: built-in code over-subscribed")
	}
	return c
}
