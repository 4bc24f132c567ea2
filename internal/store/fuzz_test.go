package store

import (
	"os"
	"path/filepath"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/md4"
)

// journalRecords returns the payloads of the journal in dir, in order.
func journalRecords(tb testing.TB, dir string) [][]byte {
	raw, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for len(raw) >= 12 {
		n := int(le32(raw[4:8]))
		out = append(out, raw[12:12+n])
		raw = raw[12+n:]
	}
	return out
}

// FuzzApplyRecord: any checksummed journal payload applied to an empty store
// is taken or refused, never a panic, and what applying it allocates is
// bounded by its length, whatever its counts declare. The seeds are the
// version and GC records of a store that evicts after every snapshot, and the
// hostile records of TestReplayBoundsCountsByRecord.
func FuzzApplyRecord(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{Budget: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := range 3 {
		files := treeV(i)
		m := manifestOf(files)
		if _, _, err := s.Snapshot(m, digestOf(m), loader(files)); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	kinds := map[byte]int{}
	for _, rec := range journalRecords(f, dir) {
		kinds[rec[0]]++
		f.Add(rec)
	}
	if kinds[recVersion] == 0 || kinds[recGC] == 0 {
		f.Fatalf("the seed store wrote records of kinds %v, want versions and GCs", kinds)
	}
	for _, rec := range hostileRecords() {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got := alloctest.BytesPerOp(2, func() {
			s := &Store{blobs: make(map[[md4.Size]byte]blobRef), segs: make(map[string]int64)}
			s.applyRecord(payload)
		})
		if ceiling := uint64(4<<10 + 64*len(payload)); got > ceiling {
			t.Fatalf("%d bytes allocated to apply a %d-byte record (ceiling %d)", got, len(payload), ceiling)
		}
	})
}
