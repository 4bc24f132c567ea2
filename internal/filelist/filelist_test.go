package filelist

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/md4"
	"msync/internal/wire"
)

func entry(path, content string) Entry {
	return Entry{Path: path, Len: len(content), Sum: md4.Sum([]byte(content))}
}

func encode(list []Entry) []byte {
	b := wire.NewBuffer(64)
	Append(b, list)
	return b.Build()
}

// rawList writes n, then each entry as Append does, whatever order or count
// they come in.
func rawList(n uint64, entries ...Entry) []byte {
	b := wire.NewBuffer(64)
	b.Uvarint(n)
	for _, e := range entries {
		b.String(e.Path)
		b.Uvarint(uint64(e.Len))
		b.Raw(e.Sum[:])
	}
	return b.Build()
}

// TestAppendParseRoundTrip: a list comes back as it went, Parse stops where
// the list ends, and the bytes are n × (path len md4) after the count.
func TestAppendParseRoundTrip(t *testing.T) {
	for _, list := range [][]Entry{
		{},
		{entry("", "empty path first")},
		{entry("a", "x"), entry("a/b", ""), entry("b", string(make([]byte, 300)))},
	} {
		raw := encode(list)
		p := wire.NewParser(append(raw, 0xAA))
		got, err := Parse(p)
		if err != nil || !reflect.DeepEqual(got, list) || p.Remaining() != 1 {
			t.Fatalf("%v: got %v, %v, %d bytes left", list, got, err, p.Remaining())
		}
		if want := rawList(uint64(len(list)), list...); !bytes.Equal(raw, want) {
			t.Fatalf("%v: encoded %x, want %x", list, raw, want)
		}
	}
}

// TestParseRefuses: what no honest list holds is an error, and a count the
// payload cannot hold costs nothing to refuse.
func TestParseRefuses(t *testing.T) {
	a, b := entry("a", "1"), entry("b", "2")
	// one writes a one-entry list from its raw parts: count, path length,
	// path, file length.
	one := func(count, pathLen []byte, path string, l []byte) []byte {
		out := append(append(append(count, pathLen...), path...), l...)
		return append(out, make([]byte, md4.Size)...)
	}
	uv := func(v uint64) []byte { return wire.AppendUvarint(nil, v) }
	for name, raw := range map[string][]byte{
		"duplicated path":   rawList(2, a, a),
		"descending pair":   rawList(2, b, a),
		"count past bytes":  rawList(3, a, b),
		"count 2^62":        uv(1 << 62),
		"length past int":   one(uv(1), uv(1), "c", uv(math.MaxInt+1)),
		"overlong count":    one([]byte{0x81, 0}, uv(1), "c", uv(1)),
		"overlong path len": one(uv(1), []byte{0x81, 0}, "c", uv(1)),
		"overlong length":   one(uv(1), uv(1), "c", []byte{0x81, 0}),
		"truncated entry":   rawList(2, a, b)[:30],
		"truncated sum":     rawList(1, a)[:10],
	} {
		if got, err := Parse(wire.NewParser(raw)); err == nil {
			t.Errorf("%s: accepted as %v", name, got)
		}
		if got := alloctest.BytesPerOp(4, func() { Parse(wire.NewParser(raw)) }); got > 1<<10 {
			t.Errorf("%s: refusing it allocated %d bytes", name, got)
		}
	}
}

// TestDiff: changes come out in path order, a same-path entry with another
// length or sum is a modify, and equal entries are not listed.
func TestDiff(t *testing.T) {
	old := []Entry{entry("a", "1"), entry("b", "2"), entry("c", "3"), entry("e", "5")}
	new := []Entry{entry("a", "1"), entry("b", "two"), entry("d", "4"), entry("e", "5"), entry("f", "6")}
	want := []Change{
		{Op: OpModify, Old: old[1], New: new[1]},
		{Op: OpDelete, Old: old[2]},
		{Op: OpAdd, New: new[2]},
		{Op: OpAdd, New: new[4]},
	}
	if got := Diff(old, new); !reflect.DeepEqual(got, want) {
		t.Fatalf("Diff = %+v\nwant %+v", got, want)
	}
	if got := Diff(new, new); len(got) != 0 {
		t.Fatalf("a list against itself: %+v", got)
	}
	if got := Diff(nil, old); len(got) != len(old) || got[0].Op != OpAdd {
		t.Fatalf("from nothing: %+v", got)
	}
}

// FuzzFileList: Parse allocates at most 4× its input plus 1 KB whatever it is
// given, and every list it accepts re-encodes to exactly the bytes it read.
func FuzzFileList(f *testing.F) {
	f.Add(encode([]Entry{entry("a", "x"), entry("a/b", "yy"), entry("b", "")}))
	f.Add(rawList(2, entry("b", "2"), entry("a", "1")))
	f.Add(rawList(2, entry("a", "1"), entry("a", "1")))
	f.Add(wire.AppendUvarint(nil, 1<<40))
	f.Add([]byte{0x80, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var list []Entry
		var err error
		left := 0
		got := alloctest.BytesPerOp(2, func() {
			p := wire.NewParser(data)
			list, err = Parse(p)
			left = p.Remaining()
		})
		if ceiling := uint64(4*len(data) + 1<<10); got > ceiling {
			t.Fatalf("%d bytes allocated for %d bytes of input (ceiling %d)", got, len(data), ceiling)
		}
		if err != nil {
			return
		}
		if enc := encode(list); !bytes.Equal(enc, data[:len(data)-left]) {
			t.Fatalf("accepted %x, re-encodes as %x", data[:len(data)-left], enc)
		}
	})
}
