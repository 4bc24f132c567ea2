package sigcache

import (
	"os"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/dirio"
	"msync/internal/md4"
	"msync/internal/wire"
)

// FuzzDecodeEntry: any entry file decodes to a miss or to a signature for the
// wanted key, never a panic, and what decoding allocates is bounded by the
// file's length, whatever its length fields declare. Arbitrary bytes almost
// never pass the checksum, so each input is also decoded sealed: as the body
// of a file whose trailer matches. The seeds are the pinned entry's body, its
// truncations and one whose level count lies.
func FuzzDecodeEntry(f *testing.F) {
	k, s := pinnedEntry()
	dir := f.TempDir()
	New(Options{Dir: dir}).Put(k, s)
	raw, err := os.ReadFile(entryPathOf(dir, k.Path))
	if err != nil {
		f.Fatal(err)
	}
	body := raw[:len(raw)-md4.Size]
	if _, ok := decodeEntry(dirio.Seal(body[:len(body):len(body)]), k); !ok {
		f.Fatal("the pinned entry does not decode")
	}
	for n := range len(body) + 1 {
		f.Add(body[:n])
	}
	// The last level's count, the byte before its two hashes, declaring a
	// million hashes.
	if body[len(body)-17] != 2 {
		f.Fatal("the pinned entry's last level does not end it")
	}
	f.Add(append(wire.AppendUvarint(body[:len(body)-17:len(body)-17], 1<<20), body[len(body)-16:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, dirio.Seal(data[:len(data):len(data)])} {
			var sig *Sig
			var ok bool
			got := alloctest.BytesPerOp(2, func() { sig, ok = decodeEntry(file, k) })
			if ceiling := uint64(4<<10 + 64*len(file)); got > ceiling {
				t.Fatalf("%d bytes allocated to decode a %d-byte entry (ceiling %d)", got, len(file), ceiling)
			}
			if !ok {
				continue
			}
			if sig.Len != k.Size {
				t.Fatalf("signature of %d bytes for a key of %d", sig.Len, k.Size)
			}
			blockSizes, tables, _ := sig.snapshot(false)
			hashes := 0
			for i, b := range blockSizes {
				if b <= 0 {
					t.Fatalf("level of block size %d", b)
				}
				hashes += len(tables[i])
			}
			if hashes > len(file)/8 {
				t.Fatalf("%d hashes from a %d-byte entry", hashes, len(file))
			}
		}
	})
}
