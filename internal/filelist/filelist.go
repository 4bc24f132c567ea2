// Package filelist is the file list every change detector in msync is built
// on: one (path, length, MD4) entry per file, strictly ascending by path (the
// paper's per-file manifest, §6.1). The flat MANIFEST, the merkle tree's leaf
// buckets, the store's journal records and the published psm1/psd1 artifacts
// all carry a list in the one encoding this package writes and reads, and
// every diff of two lists is Diff.
package filelist

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/bits"

	"msync/internal/md4"
	"msync/internal/wire"
)

// Entry is one file of a list: its path, its length and the MD4 of its bytes.
type Entry struct {
	Path string
	Len  int
	Sum  [md4.Size]byte
}

// minEntry is the fewest bytes an encoded entry takes: a one-byte path length,
// a one-byte file length and the sum.
const minEntry = 2 + md4.Size

// Append writes list to b as n:uvarint, then n × (path:str len:uvarint
// md4:16).
func Append(b *wire.Buffer, list []Entry) {
	b.Uvarint(uint64(len(list)))
	for _, e := range list {
		b.String(e.Path)
		b.Uvarint(uint64(e.Len))
		b.Raw(e.Sum[:])
	}
}

// Parse reads one list as Append writes it and leaves p after it. Before
// allocating for them it refuses a count the remaining bytes cannot hold, a
// length that does not fit an int, and a path not strictly after the one
// before it; it also refuses varints Append would have written shorter, so a
// list it accepts re-encodes to the bytes it read.
func Parse(p *wire.Parser) ([]Entry, error) { return scan(p, true) }

// Check reads one list as Parse does and refuses what Parse refuses, but
// builds nothing: it allocates no entry and no path.
func Check(p *wire.Parser) error {
	_, err := scan(p, false)
	return err
}

// scan is Parse, building the list only when build is set.
func scan(p *wire.Parser, build bool) ([]Entry, error) {
	start := p.Remaining()
	n, err := p.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(p.Remaining()/minEntry) || start-p.Remaining() != uvarintLen(n) {
		return nil, fmt.Errorf("filelist: a count of %d in %d bytes", n, p.Remaining())
	}
	var list []Entry
	if build {
		list = make([]Entry, n)
	}
	var prev []byte
	for i := range int(n) {
		start = p.Remaining()
		path, err1 := p.Bytes()
		l, err2 := p.Uvarint()
		sum, err3 := p.Raw(md4.Size)
		switch {
		case cmp.Or(err1, err2, err3) != nil:
			return nil, cmp.Or(err1, err2, err3)
		case l > math.MaxInt:
			return nil, fmt.Errorf("filelist: entry %d has length %d", i, l)
		case i > 0 && bytes.Compare(path, prev) <= 0:
			return nil, fmt.Errorf("filelist: entry %d is not after entry %d", i, i-1)
		case start-p.Remaining() != uvarintLen(uint64(len(path)))+len(path)+uvarintLen(l)+md4.Size:
			return nil, fmt.Errorf("filelist: entry %d has an overlong varint", i)
		}
		prev = path
		if build {
			list[i] = Entry{Path: string(path), Len: int(l), Sum: [md4.Size]byte(sum)}
		}
	}
	return list, nil
}

// uvarintLen is the length of v's shortest uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Change ops, from the old list's point of view.
const (
	// OpModify: the path is in both lists with another length or sum.
	OpModify byte = iota
	// OpAdd: the path is only in the new list.
	OpAdd
	// OpDelete: the path is only in the old list.
	OpDelete
)

// Change is one path's evolution between two lists: Old is its old entry
// (zero for OpAdd), New its new one (zero for OpDelete).
type Change struct {
	Op       byte
	Old, New Entry
}

// Diff lists, in path order, the changes that turn old into new; both must be
// strictly ascending by path, as Parse leaves them.
func Diff(old, new []Entry) []Change {
	var out []Change
	i, j := 0, 0
	for i < len(old) || j < len(new) {
		switch {
		case j == len(new) || i < len(old) && old[i].Path < new[j].Path:
			out = append(out, Change{Op: OpDelete, Old: old[i]})
			i++
		case i == len(old) || new[j].Path < old[i].Path:
			out = append(out, Change{Op: OpAdd, New: new[j]})
			j++
		default:
			if old[i] != new[j] {
				out = append(out, Change{Op: OpModify, Old: old[i], New: new[j]})
			}
			i++
			j++
		}
	}
	return out
}
