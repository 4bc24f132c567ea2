package filelist

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/wire"
)

// tableOf is the encoded table of list at the given size.
func tableOf(list []Entry, cells int) []byte {
	t := NewTable(cells)
	for _, e := range list {
		t.Insert(ElementOf(e))
	}
	b := wire.NewBuffer(cells * 20)
	t.Append(b)
	return b.Build()
}

// numbered is a list of n entries, the i-th with content "<i><edit>".
func numbered(n int, edit func(i int) string) []Entry {
	list := make([]Entry, n)
	for i := range list {
		list[i] = entry(fmt.Sprintf("d%02d/f%05d", i%40, i), fmt.Sprint(i, edit(i)))
	}
	return list
}

// sortElements sorts els by key, then value.
func sortElements(els []Element) []Element {
	slices.SortFunc(els, func(a, b Element) int { return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Val, b.Val)) })
	return els
}

// TestTablePeelsTheDifference: a receiver's table of 3 000 files, with the
// holder's list deleted from it, peels into exactly the elements only one
// side has — an edit's old entry on the receiver's side and its new one on the
// holder's, under the same path hash.
func TestTablePeelsTheDifference(t *testing.T) {
	const n = 3000
	mine := numbered(n, func(int) string { return "" })
	theirs := numbered(n, func(i int) string {
		if i%100 == 7 {
			return " edited"
		}
		return ""
	})
	theirs = append(theirs[:n-3], entry("z/new", "added")) // three deleted, one added
	cells := TableCells(n)
	if cells != 300 {
		t.Fatalf("TableCells(%d) = %d, want room for 120 elements at 2.5 cells each", n, cells)
	}
	raw := tableOf(mine, cells)
	if len(raw) > cells*cellMin+3 {
		t.Fatalf("a table of %d cells is %d bytes", cells, len(raw))
	}
	p := wire.NewParser(raw)
	tab, err := ParseTable(p)
	if err != nil || p.Remaining() != 0 {
		t.Fatalf("parse: %v, %d bytes left", err, p.Remaining())
	}
	for _, e := range theirs {
		tab.Delete(ElementOf(e))
	}
	inserted, deleted, ok := tab.Peel()
	var wantIn, wantDel []Element
	for _, c := range Diff(mine, theirs) {
		if c.Op != OpAdd {
			wantIn = append(wantIn, ElementOf(c.Old))
		}
		if c.Op != OpDelete {
			wantDel = append(wantDel, ElementOf(c.New))
		}
	}
	if !ok || !slices.Equal(sortElements(inserted), sortElements(wantIn)) || !slices.Equal(sortElements(deleted), sortElements(wantDel)) {
		t.Fatalf("peeled %v: %d inserted and %d deleted, want %d and %d", ok, len(inserted), len(deleted), len(wantIn), len(wantDel))
	}
	if e := ElementOf(mine[7]); e.Key != ElementOf(theirs[7]).Key || e == ElementOf(theirs[7]) {
		t.Fatal("an edit keeps its path hash and changes its element")
	}
}

// TestTableTooSmallDoesNotPeel: a table with room for 2 % of its 500 files
// changed against a third of them changed reports that it did not peel, in
// no more steps than it has cells.
func TestTableTooSmallDoesNotPeel(t *testing.T) {
	mine := numbered(500, func(int) string { return "" })
	theirs := numbered(500, func(i int) string { return fmt.Sprint(" v", i%3) })
	tab := NewTable(TableCells(len(mine)))
	for i := range mine {
		tab.Insert(ElementOf(mine[i]))
		tab.Delete(ElementOf(theirs[i]))
	}
	if in, del, ok := tab.Peel(); ok || len(in)+len(del) > TableCells(len(mine)) {
		t.Fatalf("peeled %v with %d elements", ok, len(in)+len(del))
	}
}

// TestParseTableRefuses: a cell count that is not a positive multiple of the
// hash count, or that the bytes cannot hold, is refused before a cell is
// allocated; a truncated cell is an error.
func TestParseTableRefuses(t *testing.T) {
	header := func(cells uint64, body int) []byte {
		return append(wire.AppendUvarint(nil, cells), make([]byte, body)...)
	}
	full := tableOf(numbered(10, func(int) string { return "" }), 8)
	for name, raw := range map[string][]byte{
		"2^40 cells":       header(1<<40, 64),
		"past their bytes": header(8, 8*cellMin-1),
		"not a multiple":   header(6, 6*cellMin),
		"zero cells":       header(0, cellMin),
		"truncated cell":   full[:len(full)-1],
	} {
		if _, err := ParseTable(wire.NewParser(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := alloctest.BytesPerOp(4, func() { ParseTable(wire.NewParser(raw)) }); got > 1<<10 && name != "truncated cell" {
			t.Errorf("%s: refusing it allocated %d bytes", name, got)
		}
	}
}

// FuzzTablePeel: whatever a table's bytes, parsing it allocates at most 4× its
// input plus 1 KB and peeling it never panics; a peel that reports success
// leaves an empty table when the elements it listed are put back in the
// table it was given.
func FuzzTablePeel(f *testing.F) {
	list := numbered(40, func(int) string { return "" })
	f.Add(tableOf(list, 8))
	f.Add(tableOf(list[:1], 4))
	f.Add(tableOf(nil, 4))
	f.Add(wire.AppendUvarint(nil, 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab *Table
		var err error
		got := alloctest.BytesPerOp(2, func() { tab, err = ParseTable(wire.NewParser(data)) })
		if ceiling := uint64(4*len(data) + 1<<10); got > ceiling {
			t.Fatalf("%d bytes allocated for %d bytes of input (ceiling %d)", got, len(data), ceiling)
		}
		if err != nil {
			return
		}
		inserted, deleted, ok := tab.Peel()
		if !ok {
			return
		}
		again, _ := ParseTable(wire.NewParser(data))
		for _, el := range inserted {
			again.Delete(el)
		}
		for _, el := range deleted {
			again.Insert(el)
		}
		b := wire.NewBuffer(len(data))
		again.Append(b)
		if !bytes.Equal(b.Build(), tableOf(nil, len(again.cells))) {
			t.Fatalf("peeled %d and %d elements, and the table is not empty without them", len(inserted), len(deleted))
		}
	})
}
