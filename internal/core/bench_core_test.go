package core

import (
	"fmt"
	"math/rand"
	"testing"

	"msync/internal/corpus"
	"msync/internal/rolling"
)

func BenchmarkSyncLocal1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	old := corpus.SourceText(rng, 1<<20)
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 50, BurstSpread: 300}
	cur := em.Apply(rng, old)
	cfg := DefaultConfig()
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SyncLocal(old, cur, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanOld times one round's scan of a 1 MB old file: the key counts
// of a tail block, a coarse round and a fine round, both families, the
// protocol's extreme window sizes. Half the keys occur in the file.
func BenchmarkScanOld(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	fOld := corpus.SourceText(rng, 1<<20)
	const hb = 32
	for _, family := range []string{"poly", "adler"} {
		fam, _ := rolling.FamilyByName(family)
		c := scanClient(fOld, family, 1)
		for _, window := range []int{128, 2048} {
			for _, keys := range []int{1, 64, 4096} {
				entries := make([]scanEntry, keys)
				for i := range entries {
					pos := rng.Intn(len(fOld) - window)
					entries[i] = scanEntry{window, rolling.Truncate(fam.Hash(fOld[pos:pos+window])+uint64(i&1), hb)}
				}
				b.Run(fmt.Sprintf("%s-b%d-keys%d", family, window, keys), func(b *testing.B) {
					b.SetBytes(int64(len(fOld)))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						kernelScan(c, hb, entries, 4, 1)
					}
				})
			}
		}
	}
}

// BenchmarkScanShards is the measurement behind scanMinShard and
// scanReseedFactor: one round's scan (64 keys and a tail key) run serially
// and as two shards, over old files from 64 KB to 2 MB at the protocol's
// extreme window sizes. Two shards pay two window re-seeds, a goroutine
// hand-off and the hit merge; the floor is where that stops costing more than
// the second core returns. Meaningful only with GOMAXPROCS >= 2.
func BenchmarkScanShards(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	const hb = 32
	fam := rolling.Default()
	for _, size := range []int{64 << 10, 128 << 10, 256 << 10, 317 << 10, 512 << 10, 1 << 20, 2 << 20} {
		fOld := corpus.SourceText(rng, size+79)
		c := scanClient(fOld, "poly", 2)
		for _, window := range []int{128, 2048} {
			entries := []scanEntry{{79, 12345}}
			for i := 0; i < 64; i++ {
				pos := rng.Intn(len(fOld) - window)
				entries = append(entries, scanEntry{window, rolling.Truncate(fam.Hash(fOld[pos:pos+window])+uint64(i&1), hb)})
			}
			for _, shards := range []int{1, 2} {
				b.Run(fmt.Sprintf("%dKB-b%d-shards%d", size>>10, window, shards), func(b *testing.B) {
					b.SetBytes(int64(len(fOld)))
					for i := 0; i < b.N; i++ {
						kernelScan(c, hb, entries, 4, shards)
					}
				})
			}
		}
	}
}
