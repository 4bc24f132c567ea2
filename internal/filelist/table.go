package filelist

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"msync/internal/md4"
	"msync/internal/wire"
)

// A Table is an invertible Bloom lookup table over a file list, after
// Mitzenmacher and Morgan's directory reconciliation: each entry is one
// 16-byte Element, added to tableHashes cells, one in each equal part of the
// table. A receiver inserts its list, the holder deletes its own from the
// table it gets, and what is left holds only the entries the two lists do
// not share, which Peel lists while the table has more cells than about 1.3
// an element. The cells an element lands in and its check bits hash the
// whole element, so the two sides of an edited file never share cells.
type Table struct{ cells []cell }

// cell sums the elements added to it: their count (deletions count -1), the
// XOR of their keys, values and check bits.
type cell struct {
	count    int64
	key, val uint64
	check    uint16
}

// Element is what a Table holds of an entry: a hash of its path, Key, and a
// hash of its length and sum, Val.
type Element struct{ Key, Val uint64 }

// tableHashes is how many cells an element lands in, tableRatio how many
// cells a table has per element of room, and tableChurn the share of a
// receiver's files, in percent, it has room for changed, two elements each
// (an edit is the old entry and the new one). The ratio and the hash count
// are measured: EXPERIMENTS.md "Reconciling the list with a table".
const (
	tableHashes = 4
	tableRatio  = 2.5
	tableChurn  = 2
)

// cellMin is the fewest bytes an encoded cell takes: a one-byte count, the
// key, the value and the check bits.
const cellMin = 1 + 8 + 8 + 2

// TableCells is the size of the table a list of n entries is sent in: room
// for tableChurn percent of them changed, rounded up to whole parts.
func TableCells(n int) int {
	room := 2 * ((n*tableChurn + 99) / 100)
	parts := (int(float64(room)*tableRatio) + tableHashes - 1) / tableHashes
	return max(parts, 1) * tableHashes
}

// NewTable is an empty table of cells cells, a multiple of tableHashes.
func NewTable(cells int) *Table { return &Table{cells: make([]cell, cells)} }

// ElementOf is e's element: FNV-1a of the path, and of the length and sum,
// each mixed to 64 bits.
func ElementOf(e Entry) Element {
	var b [8 + md4.Size]byte
	binary.LittleEndian.PutUint64(b[:], uint64(e.Len))
	copy(b[8:], e.Sum[:])
	return Element{Key: hash64(e.Path), Val: hash64(b[:])}
}

// hash64 is FNV-1a of s through mix.
func hash64[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return mix(h)
}

// mix is MurmurHash3's 64-bit finalizer.
func mix(x uint64) uint64 {
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// spread is el's hash over both of its halves, from which its cells and its
// check bits are drawn.
func spread(el Element) uint64 { return mix(el.Key ^ mix(el.Val+0x9e3779b97f4a7c15)) }

// at is the cell el lands in within part j.
func (t *Table) at(h uint64, j int) int {
	w := len(t.cells) / tableHashes
	return j*w + int(mix(h+uint64(j+1)*0x9e3779b97f4a7c15)%uint64(w))
}

// Insert adds el to the table; Delete takes it out, or counts it missing.
func (t *Table) Insert(el Element) { t.add(el, 1) }
func (t *Table) Delete(el Element) { t.add(el, -1) }

func (t *Table) add(el Element, n int64) {
	h := spread(el)
	for j := 0; j < tableHashes; j++ {
		c := &t.cells[t.at(h, j)]
		c.count += n
		c.key ^= el.Key
		c.val ^= el.Val
		c.check ^= uint16(h)
	}
}

// Append writes the table to b: the cell count, then each cell as count:
// uvarint, key:8, val:8 and check:2, little-endian. Only an inserting end
// sends a table, so every count is 0 or more.
func (t *Table) Append(b *wire.Buffer) {
	b.Uvarint(uint64(len(t.cells)))
	var raw [8 + 8 + 2]byte
	for _, c := range t.cells {
		b.Uvarint(uint64(c.count))
		binary.LittleEndian.PutUint64(raw[:], c.key)
		binary.LittleEndian.PutUint64(raw[8:], c.val)
		binary.LittleEndian.PutUint16(raw[16:], c.check)
		b.Raw(raw[:])
	}
}

// ParseTable reads one table as Append writes it and leaves p after it. A
// cell count that is not a positive multiple of tableHashes, or that the
// remaining bytes cannot hold, is refused before a cell is allocated.
func ParseTable(p *wire.Parser) (*Table, error) {
	n, err := p.Uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 || n%tableHashes != 0 || n > uint64(p.Remaining()/cellMin) {
		return nil, fmt.Errorf("filelist: a table of %d cells in %d bytes", n, p.Remaining())
	}
	t := NewTable(int(n))
	for i := range t.cells {
		count, err1 := p.Uvarint()
		raw, err2 := p.Raw(8 + 8 + 2)
		if err := cmp.Or(err1, err2); err != nil {
			return nil, err
		}
		t.cells[i] = cell{int64(count), binary.LittleEndian.Uint64(raw), binary.LittleEndian.Uint64(raw[8:]), binary.LittleEndian.Uint16(raw[16:])}
	}
	return t, nil
}

// Peel empties the table of the elements it can list: inserted, those
// inserted and not deleted; deleted, those deleted and not inserted. A cell
// is listed when it holds one element, which its count, its check bits and
// its place all agree on; taking the element out may leave its other cells
// with one, so they are looked at again. ok reports that the table ended
// empty, so the two lists are the whole difference; a table that does not
// empty in as many steps as it has cells is not one. The work is linear in
// the cells.
func (t *Table) Peel() (inserted, deleted []Element, ok bool) {
	stack := make([]int, len(t.cells))
	for i := range stack {
		stack[i] = i
	}
	w := len(t.cells) / tableHashes
	for len(stack) > 0 && len(inserted)+len(deleted) < len(t.cells) {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := t.cells[i]
		el := Element{c.key, c.val}
		h := spread(el)
		if c.count != 1 && c.count != -1 || c.check != uint16(h) || t.at(h, i/w) != i {
			continue
		}
		if c.count == 1 {
			inserted = append(inserted, el)
		} else {
			deleted = append(deleted, el)
		}
		t.add(el, -c.count)
		for j := 0; j < tableHashes; j++ {
			stack = append(stack, t.at(h, j))
		}
	}
	for _, c := range t.cells {
		if c != (cell{}) {
			return inserted, deleted, false
		}
	}
	return inserted, deleted, true
}

// Reconcile deletes list from t, the table of another list, and peels it
// into the changes that turn the other list into list, in list's path order —
// each an OpModify or an OpAdd whose New is list's entry, a modify's Old
// holding only the path — and the sorted path hashes of the other list's
// entries under a path list does not have: its deletions. ok is false when
// the table does not peel. What peels is trusted: a table of no list can
// reconcile into anything.
func (t *Table) Reconcile(list []Entry) (changes []Change, gone []uint64, ok bool) {
	els := make([]Element, len(list))
	for i, e := range list {
		els[i] = ElementOf(e)
		t.Delete(els[i])
	}
	theirs, mine, ok := t.Peel()
	if !ok {
		return nil, nil, false
	}
	old, added := make(map[uint64]bool, len(theirs)), make(map[Element]bool, len(mine))
	for _, el := range theirs {
		old[el.Key] = true
	}
	for _, el := range mine {
		added[el] = true
	}
	for i, e := range list {
		switch key := els[i].Key; {
		case !added[els[i]]:
		case old[key]:
			delete(old, key)
			changes = append(changes, Change{Op: OpModify, Old: Entry{Path: e.Path}, New: e})
		default:
			changes = append(changes, Change{Op: OpAdd, New: e})
		}
	}
	for _, el := range theirs {
		if old[el.Key] {
			delete(old, el.Key)
			gone = append(gone, el.Key)
		}
	}
	slices.Sort(gone)
	return changes, gone, true
}
