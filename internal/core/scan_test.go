package core

import (
	"math/rand"
	"slices"
	"testing"

	"msync/internal/corpus"
	"msync/internal/rolling"
)

// The old-file scan exactly as it stood before the bulk kernel (commit
// 0d144fb): an open-addressed set probed through two interface calls at
// every position, one pass per window size. Frozen here as the reference the
// differential tests compare the kernel against; do not "tidy" it.

type refSearchSet struct {
	keys []uint64
	val  []int32
	mask uint64
	over map[uint64][]int32
}

func refNewSearchSet(n int) *refSearchSet {
	size := 16
	for size < n*4 {
		size *= 2
	}
	ss := &refSearchSet{keys: make([]uint64, size), val: make([]int32, size), mask: uint64(size - 1)}
	for i := range ss.keys {
		ss.keys[i] = emptySlot
	}
	return ss
}

func (ss *refSearchSet) slot(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 1 & ss.mask
}

func (ss *refSearchSet) add(key uint64, entry int32) {
	s := ss.slot(key)
	for {
		switch ss.keys[s] {
		case emptySlot:
			ss.keys[s] = key
			ss.val[s] = entry
			return
		case key:
			if ss.over == nil {
				ss.over = make(map[uint64][]int32)
			}
			ss.over[key] = append(ss.over[key], entry)
			return
		}
		s = (s + 1) & ss.mask
	}
}

func (ss *refSearchSet) lookup(key uint64) (first int32, extras []int32, ok bool) {
	s := ss.slot(key)
	for {
		switch ss.keys[s] {
		case emptySlot:
			return 0, nil, false
		case key:
			return ss.val[s], ss.over[key], true
		}
		s = (s + 1) & ss.mask
	}
}

func refScanOld(fOld []byte, fam rolling.Family, size int, bits uint, set *refSearchSet, cands [][]int32, maxAlt int) {
	roller := fam.Roller(size)
	roller.Init(fOld)
	for pos := 0; ; pos++ {
		key := rolling.Truncate(roller.Sum(), bits)
		if first, extras, ok := set.lookup(key); ok {
			if len(cands[first]) < maxAlt {
				cands[first] = append(cands[first], int32(pos))
			}
			for _, ei := range extras {
				if len(cands[ei]) < maxAlt {
					cands[ei] = append(cands[ei], int32(pos))
				}
			}
		}
		if pos+size >= len(fOld) {
			break
		}
		roller.Roll(fOld[pos], fOld[pos+size])
	}
}

// scanEntry is one hash value a round sent: the block size it was taken over
// and its truncated value.
type scanEntry struct {
	size int
	key  uint64
}

// refScan runs the frozen scan, one pass per window size, the way
// AbsorbHashes used to.
func refScan(fOld []byte, fam rolling.Family, bits uint, entries []scanEntry, maxAlt int) [][]int32 {
	cands := make([][]int32, len(entries))
	count := map[int]int{}
	for _, e := range entries {
		count[e.size]++
	}
	for size, n := range count {
		set := refNewSearchSet(n)
		for i, e := range entries {
			if e.size == size {
				set.add(e.key, int32(i))
			}
		}
		refScanOld(fOld, fam, size, bits, set, cands, maxAlt)
	}
	return cands
}

// kernelScan runs the same entries through the client's sets and scan kernel,
// the way AbsorbHashes does now.
func kernelScan(c *ClientFile, bits uint, entries []scanEntry, maxAlt, shards int) [][]int32 {
	cands := make([][]int32, len(entries))
	arena := make([]int32, len(entries)*maxAlt)
	for i := range cands {
		cands[i] = arena[i*maxAlt : i*maxAlt : (i+1)*maxAlt]
	}
	c.nsets = 0
	for _, e := range entries {
		c.setFor(e.size).n++
	}
	sets := c.sets[:c.nsets]
	for k := range sets {
		sets[k].reset()
	}
	for i, e := range entries {
		c.setFor(e.size).add(e.key, int32(i))
	}
	c.scanOld(sets, bits, cands, maxAlt, shards)
	return cands
}

func scanClient(fOld []byte, family string, workers int) *ClientFile {
	cfg := DefaultConfig()
	cfg.HashFamily = family
	cfg.Workers = workers
	c, err := NewClientFile(fOld, len(fOld), &cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// sameCands reports whether two scans found the same candidates (an entry
// without any is nil from the reference and empty from the kernel).
func sameCands(got, want [][]int32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}

// scanEntries draws n entries of the given window size: mostly hashes of
// windows that do occur in fOld (so they hit, repeated content more than
// maxAlt times), some duplicated (the set's `over` entries), some absent.
func scanEntries(rng *rand.Rand, fOld []byte, fam rolling.Family, size int, bits uint, n int) []scanEntry {
	out := make([]scanEntry, 0, n)
	for len(out) < n {
		switch k := rng.Intn(8); {
		case k == 0 && len(out) > 0:
			out = append(out, out[rng.Intn(len(out))])
		case k == 1:
			out = append(out, scanEntry{size, rolling.Truncate(rng.Uint64(), bits)})
		default:
			pos := rng.Intn(len(fOld) - size + 1)
			out = append(out, scanEntry{size, rolling.Truncate(fam.Hash(fOld[pos:pos+size]), bits)})
		}
	}
	return out
}

// scanTestFile is source text with a zero run and a repeated stretch, so that
// some windows occur far more than MaxAlternates times.
func scanTestFile(rng *rand.Rand, n int) []byte {
	f := corpus.SourceText(rng, n)
	if n >= 64 {
		clear(f[n/8 : n/8+n/16])
		copy(f[n/2:], f[n/4:n/4+n/8])
	}
	return f
}

// TestScanMatchesReference: for both families, hash widths 10…56, windows of
// 1 byte, an odd tail and the whole file, key counts that take the one-key
// compare, the smallest filter and a grown one, and 1, 2 and 8 shards, the
// kernel's candidates equal the frozen per-position scan's — same entries,
// same positions, same order, same MaxAlternates cut.
func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fOld := scanTestFile(rng, 20_011)
	for _, family := range []string{"poly", "adler"} {
		fam, err := rolling.FamilyByName(family)
		if err != nil {
			t.Fatal(err)
		}
		c := scanClient(fOld, family, 8)
		for _, hb := range []uint{10, 17, 24, 40, 56} {
			for _, tc := range []struct {
				size, n, tail, tailN int
			}{
				{size: 1, n: 3},
				{size: 128, n: 1},
				{size: 128, n: 150, tail: 43, tailN: 1},
				{size: 2048, n: 9, tail: 1579, tailN: 1},
				{size: 512, n: 700, tail: 1, tailN: 2},
				{size: len(fOld), n: 1},
				{size: len(fOld) - 1, n: 2, tail: len(fOld), tailN: 1},
			} {
				entries := scanEntries(rng, fOld, fam, tc.size, hb, tc.n)
				if tc.tail > 0 {
					entries = append(entries, scanEntries(rng, fOld, fam, tc.tail, hb, tc.tailN)...)
					rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
				}
				for _, maxAlt := range []int{1, 4} {
					want := refScan(fOld, fam, hb, entries, maxAlt)
					for _, shards := range []int{1, 2, 8} {
						got := kernelScan(c, hb, entries, maxAlt, shards)
						if !sameCands(got, want) {
							t.Fatalf("%s bits=%d sizes=%d/%d keys=%d/%d maxAlt=%d shards=%d: candidates differ from the reference scan",
								family, hb, tc.size, tc.tail, tc.n, tc.tailN, maxAlt, shards)
						}
					}
				}
			}
		}
	}
}

// FuzzScanMatchesReference holds the kernel to the frozen scan on arbitrary
// old files, window sizes, hash widths, key sets and shard counts.
func FuzzScanMatchesReference(f *testing.F) {
	f.Add([]byte("abcabcabcabcabcabcabcabcabcabc, and then something else entirely"), int64(1), uint16(3), uint16(2), uint8(10), uint8(5), uint8(2), false)
	f.Add(make([]byte, 600), int64(2), uint16(64), uint16(7), uint8(56), uint8(40), uint8(8), true)
	f.Fuzz(func(t *testing.T, fOld []byte, seed int64, size, tail uint16, hb, keys, shards uint8, adler bool) {
		if len(fOld) == 0 {
			return
		}
		family := "poly"
		if adler {
			family = "adler"
		}
		fam, _ := rolling.FamilyByName(family)
		rng := rand.New(rand.NewSource(seed))
		bits := 10 + uint(hb)%47
		b := int(size)%len(fOld) + 1
		entries := scanEntries(rng, fOld, fam, b, bits, int(keys)+1)
		if tl := int(tail) % b; tl > 0 {
			entries = append(entries, scanEntries(rng, fOld, fam, tl, bits, 1)...)
		}
		maxAlt := 1 + int(seed&3)
		want := refScan(fOld, fam, bits, entries, maxAlt)
		got := kernelScan(scanClient(fOld, family, 8), bits, entries, maxAlt, int(shards)%9)
		if !sameCands(got, want) {
			t.Fatalf("%s bits=%d sizes=%d/%d keys=%d maxAlt=%d shards=%d: candidates differ from the reference scan",
				family, bits, b, int(tail)%b, len(entries), maxAlt, int(shards)%9)
		}
	})
}
