package rolling

// DecAdler is a "modified Adler checksum" with the full property set the
// protocol needs (rolling, composable, decomposable, bit-prefix
// decomposable) — the construction the paper's authors built for their
// prototype (§5.5), reproduced here as an alternative to the polynomial
// family.
//
// It keeps two 32-bit components over a byte-diffusion table T:
//
//	A(s) = Σ T[s[i]]                 mod 2^32
//	B(s) = Σ (m-i)·T[s[i]]           mod 2^32   (m = len(s))
//
// which compose as A(XY) = A(X)+A(Y) and B(XY) = B(X) + |Y|·A(X) + B(Y),
// giving O(1) rolling and exact decomposition. The 64-bit hash value
// bit-interleaves A and B (A in even positions, B in odd), so that the low
// k bits of the value expose ⌈k/2⌉ low bits of A and ⌊k/2⌋ low bits of B —
// and since all component arithmetic is low-bit-causal mod 2^32, truncated
// hashes still decompose. Interleaving also fixes plain Adler's weakness
// that short truncations would only ever see the (order-insensitive) A sum.
type DecAdler struct {
	table [256]uint32
}

// NewDecAdler builds a DecAdler family with a diffusion table from seed.
func NewDecAdler(seed uint64) *DecAdler {
	d := &DecAdler{}
	x := seed
	for i := range d.table {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		d.table[i] = uint32(z) | 1
	}
	return d
}

// DefaultDecAdler returns the process-wide default DecAdler family.
func DefaultDecAdler() *DecAdler { return defaultDecAdler }

var defaultDecAdler = NewDecAdler(DefaultSeed)

// components computes (A, B) for data.
func (d *DecAdler) components(data []byte) (a, b uint32) {
	m := uint32(len(data))
	for i, c := range data {
		t := d.table[c]
		a += t
		b += (m - uint32(i)) * t
	}
	return a, b
}

// interleave packs A into even bit positions and B into odd ones.
func interleave(a, b uint32) uint64 {
	return spread(a) | spread(b)<<1
}

// spread inserts a zero bit between every bit of v (morton encoding).
func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact reverses spread.
func compact(x uint64) uint32 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return uint32(x)
}

// deinterleave splits a (possibly truncated) hash value back into A and B.
func deinterleave(v uint64) (a, b uint32) {
	return compact(v), compact(v >> 1)
}

// Hash implements Family.
func (d *DecAdler) Hash(data []byte) uint64 {
	a, b := d.components(data)
	return interleave(a, b)
}

// Name implements Family.
func (d *DecAdler) Name() string { return "adler" }

// Compose implements Family: A(XY) = A(X)+A(Y) and B(XY) = B(X) + |Y|·A(X) +
// B(Y).
func (d *DecAdler) Compose(left, right uint64, rightLen int) uint64 {
	al, bl := deinterleave(left)
	ar, br := deinterleave(right)
	return interleave(al+ar, bl+uint32(rightLen)*al+br)
}

// DeriveRight implements Family. bits of the value give ⌈bits/2⌉ bits of A
// and ⌊bits/2⌋ bits of B; the component arithmetic stays valid at any
// truncation.
func (d *DecAdler) DeriveRight(parent uint64, bits uint, left uint64, rightLen int) uint64 {
	ap, bp := deinterleave(Truncate(parent, bits))
	al, bl := deinterleave(Truncate(left, bits))
	ar := ap - al
	br := bp - bl - uint32(rightLen)*al
	return Truncate(interleave(ar, br), bits)
}

// adlerRoller slides a fixed window.
type adlerRoller struct {
	d      *DecAdler
	window uint32
	a, b   uint32
}

// Roller implements Family.
func (d *DecAdler) Roller(window int) WindowRoller {
	if window <= 0 {
		panic("rolling: window must be positive")
	}
	return &adlerRoller{d: d, window: uint32(window)}
}

func (r *adlerRoller) Init(data []byte) {
	r.a, r.b = r.d.components(data[:r.window])
}

// InitAt seeds the window at position pos of data; see WindowRoller.InitAt.
func (r *adlerRoller) InitAt(data []byte, pos int) {
	r.a, r.b = r.d.components(data[pos : pos+int(r.window)])
}

func (r *adlerRoller) Roll(out, in byte) {
	to, ti := r.d.table[out], r.d.table[in]
	r.a += ti - to
	r.b += r.a - r.window*to
}

func (r *adlerRoller) Sum() uint64 { return interleave(r.a, r.b) }

// Fill writes the hashes of the len(dst) windows starting at pos; see
// WindowRoller.Fill.
func (r *adlerRoller) Fill(dst []uint64, data []byte, pos int) {
	in := data[pos+int(r.window):]
	if len(in) > len(dst) {
		in = in[:len(dst)]
	}
	out, head := data[pos:][:len(in)], dst[:len(in)]
	tab, window, a, b := &r.d.table, r.window, r.a, r.b
	for i := range in {
		head[i] = interleave(a, b)
		to := tab[out[i]]
		a += tab[in[i]] - to
		b += a - window*to
	}
	if len(in) < len(dst) {
		dst[len(in)] = interleave(a, b)
	}
	r.a, r.b = a, b
}
