// Package rolling implements the hash substrate of the synchronization
// framework: a polynomial (Karp–Rabin style) hash over Z/2^64 that is
// simultaneously rolling, composable, decomposable, and bit-prefix
// decomposable, plus the classic rsync rolling checksum.
//
// The four properties (paper, Section 5.5) are:
//
//   - rolling:      H(s[i+1 : i+m+1]) is computable in O(1) from H(s[i : i+m])
//   - composable:   H(XY) is computable from H(X), H(Y), |Y|
//   - decomposable: H(Y) is computable from H(XY), H(X) and |Y|
//   - bit-prefix:   all of the above hold for the low k bits alone, for any k
//
// Bit-prefix decomposability is what lets the protocol transmit only
// truncated hashes and still suppress one sibling hash per pair: arithmetic
// mod 2^64 (addition, subtraction, multiplication by an odd constant and its
// inverse) never propagates information from high bits to low bits, so the
// low k bits of a derived hash depend only on the low k bits of its inputs.
//
// The paper built a modified Adler checksum with these properties; we use the
// cleaner polynomial construction (see DESIGN.md, substitutions table). Byte
// values are diffused through a fixed 256-entry random table before entering
// the polynomial so that truncations to few bits remain well distributed.
package rolling

// DefaultBase is the default polynomial base. It must be odd so that powers
// of the base are invertible mod 2^64.
const DefaultBase uint64 = 0x9E3779B97F4A7C55

// DefaultSeed seeds the byte-diffusion table. Client and server must agree on
// (base, seed); the protocol pins them in the HELLO exchange.
const DefaultSeed uint64 = 0x1D8AF066D5F8FD4F

// Poly is a polynomial hash family H(s) = sum T[s[i]] * base^(m-1-i) mod 2^64.
type Poly struct {
	base  uint64
	table [256]uint64
}

// NewPoly returns a Poly with the given base (must be odd) and diffusion
// table derived from seed.
func NewPoly(base, seed uint64) *Poly {
	if base%2 == 0 {
		panic("rolling: base must be odd")
	}
	p := &Poly{base: base}
	// SplitMix64 fills the diffusion table deterministically from the seed.
	x := seed
	for i := range p.table {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		// Force odd so even heavily truncated table entries differ.
		p.table[i] = z | 1
	}
	return p
}

// Default returns the process-wide default Poly.
func Default() *Poly { return defaultPoly }

var defaultPoly = NewPoly(DefaultBase, DefaultSeed)

// Hash computes the full 64-bit hash of data.
func (p *Poly) Hash(data []byte) uint64 {
	var h uint64
	for _, b := range data {
		h = h*p.base + p.table[b]
	}
	return h
}

// Pow returns base^n mod 2^64.
func (p *Poly) Pow(n int) uint64 {
	if n < 0 {
		panic("rolling: negative exponent")
	}
	result := uint64(1)
	b := p.base
	for e := uint(n); e > 0; e >>= 1 {
		if e&1 == 1 {
			result *= b
		}
		b *= b
	}
	return result
}

// Compose returns H(XY) given hx = H(X), hy = H(Y) and |Y|.
func (p *Poly) Compose(hx, hy uint64, lenY int) uint64 {
	return hx*p.Pow(lenY) + hy
}

// Truncate keeps the low bits of h. bits must be in [1, 64].
func Truncate(h uint64, bits uint) uint64 {
	if bits >= 64 {
		return h
	}
	return h & ((1 << bits) - 1)
}

// Roller computes the hash of a sliding fixed-size window in O(1) per step.
type Roller struct {
	p      *Poly
	window int
	powTop uint64 // base^(window-1)
	h      uint64
}

// NewRoller returns a Roller for windows of the given size.
func (p *Poly) NewRoller(window int) *Roller {
	if window <= 0 {
		panic("rolling: window must be positive")
	}
	return &Roller{p: p, window: window, powTop: p.Pow(window - 1)}
}

// Init computes the hash of the first window. data must have length >= window.
func (r *Roller) Init(data []byte) {
	r.h = r.p.Hash(data[:r.window])
}

// InitAt seeds the window at position pos of data; see WindowRoller.InitAt.
func (r *Roller) InitAt(data []byte, pos int) {
	r.h = r.p.Hash(data[pos : pos+r.window])
}

// Roll slides the window one byte: out leaves on the left, in enters on the
// right.
func (r *Roller) Roll(out, in byte) {
	r.h = (r.h-r.p.table[out]*r.powTop)*r.p.base + r.p.table[in]
}

// Sum returns the hash of the current window.
func (r *Roller) Sum() uint64 { return r.h }

// Fill writes the hashes of the len(dst) windows starting at pos; see
// WindowRoller.Fill. The step is Roll's with the product distributed,
// h·base + d where d = T[in] − T[out]·base^window, taken two positions at a
// time: h·base² + (d₀·base + d₁). The values are the same mod 2^64, but only
// one multiply and one add per two positions wait for the previous hash.
func (r *Roller) Fill(dst []uint64, data []byte, pos int) {
	// The window can slide once for every byte after it: len(dst) times, or
	// one fewer when the last window filled ends data.
	in := data[pos+r.window:]
	if len(in) > len(dst) {
		in = in[:len(dst)]
	}
	slides := len(in)
	out, head := data[pos:][:slides], dst[:slides]
	tab, base, powWin, h := &r.p.table, r.p.base, r.powTop*r.p.base, r.h
	base2 := base * base
	i := 0
	for ; i < slides-1; i += 2 {
		d0 := tab[in[i]] - tab[out[i]]*powWin
		d1 := tab[in[i+1]] - tab[out[i+1]]*powWin
		head[i] = h
		head[i+1] = h*base + d0
		h = h*base2 + (d0*base + d1)
	}
	if i < slides {
		head[i] = h
		h = h*base + (tab[in[i]] - tab[out[i]]*powWin)
	}
	if slides < len(dst) {
		dst[slides] = h
	}
	r.h = h
}
