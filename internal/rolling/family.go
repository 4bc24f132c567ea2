package rolling

import "fmt"

// WindowRoller computes the hash of a sliding fixed-size window in O(1) per
// step.
type WindowRoller interface {
	// Init computes the hash of the first window of data.
	Init(data []byte)
	// InitAt seeds the window at [pos, pos+window) of data, exactly as if
	// the roller had been initialized at data's start and rolled forward
	// pos times. It costs one window's worth of hashing — the entry point
	// for parallel shard scans, where each shard re-seeds at its own start
	// instead of rolling through its predecessors' territory.
	InitAt(data []byte, pos int)
	// Roll slides the window one byte: out leaves, in enters.
	Roll(out, in byte)
	// Sum returns the hash of the current window.
	Sum() uint64
	// Fill is the bulk form of Sum and Roll: with the window at
	// [pos, pos+window) of data it sets dst[i] to the hash of the window at
	// pos+i, for every i < len(dst). All of those windows must lie inside
	// data. It leaves the window at pos+len(dst) when data holds one there,
	// so the next Fill continues from that position; otherwise on the last
	// window of data.
	Fill(dst []uint64, data []byte, pos int)
}

// Family is a rolling, decomposable, bit-prefix-decomposable hash family —
// the contract the map-construction protocol needs (paper §5.5). Two
// implementations exist: the polynomial hash (Poly) and the modified Adler
// checksum (DecAdler), matching the paper's two prototype hash functions.
type Family interface {
	// Hash computes the full 64-bit hash of data.
	Hash(data []byte) uint64
	// Roller returns a sliding-window hasher consistent with Hash.
	Roller(window int) WindowRoller
	// Compose returns H(left ∥ right) from H(left), H(right) and the length
	// of right — composability, which lets a table of coarse block hashes be
	// built from the table one level finer without re-reading the data.
	Compose(left, right uint64, rightLen int) uint64
	// DeriveRight computes the low `bits` bits of H(right) from the low
	// `bits` bits of H(parent) and at least `bits` bits of H(left), where
	// parent = left ∥ right and right has length rightLen. This is the
	// bit-prefix decomposition that lets the protocol suppress sibling
	// hash transmission.
	DeriveRight(parent uint64, bits uint, left uint64, rightLen int) uint64
	// Name identifies the family on the wire.
	Name() string
}

// Roller adapts Poly's concrete roller to the WindowRoller interface.
func (p *Poly) Roller(window int) WindowRoller { return p.NewRoller(window) }

// DeriveRight implements Family for Poly: H(parent) = H(left)·base^rightLen
// + H(right) in Z/2^64, so the low bits of H(right) follow from the low
// bits of the other two.
func (p *Poly) DeriveRight(parent uint64, bits uint, left uint64, rightLen int) uint64 {
	return Truncate(Truncate(parent, bits)-Truncate(left, bits)*p.Pow(rightLen), bits)
}

// Name implements Family.
func (p *Poly) Name() string { return "poly" }

// FamilyByName returns the named default-seeded hash family.
func FamilyByName(name string) (Family, error) {
	switch name {
	case "", "poly":
		return Default(), nil
	case "adler":
		return DefaultDecAdler(), nil
	default:
		return nil, fmt.Errorf("rolling: unknown hash family %q", name)
	}
}

// Compile-time interface checks.
var (
	_ Family = (*Poly)(nil)
	_ Family = (*DecAdler)(nil)
)
