package core

import (
	"math/rand"
	"reflect"
	"testing"

	"msync/internal/corpus"
	"msync/internal/md4"
	"msync/internal/sigcache"
)

// TestComposedLevelsMatchComputeLevel: every level table buildLevels derives
// by composition equals the table computeLevel hashes from the bytes, for
// both families, on lengths around every block boundary of the schedule (a
// full, short and missing right sibling at every level), and one pass over
// the file is all that is counted as hashed.
func TestComposedLevelsMatchComputeLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	data := corpus.RandomText(rng, 3*2048+200)
	for _, family := range []string{"poly", "adler"} {
		cfg := DefaultConfig()
		cfg.HashFamily = family
		fam := cfg.hashFamily()
		lengths := map[int]bool{}
		for b := cfg.MinBlockSize; b <= cfg.MaxBlockSize; b *= 2 {
			for _, k := range []int{1, 2, 3, 5} {
				for d := -2; d <= 2; d++ {
					if n := k*b + d; n >= 2*cfg.MinBlockSize && n <= len(data) {
						lengths[n] = true
					}
				}
			}
		}
		for n := range lengths {
			f := data[:n]
			sig := sigcache.NewSig(int64(n), md4.Sum(f))
			hashes, hashed := buildLevels(sig, f, fam, &cfg)
			if want := int64((n + cfg.MinBlockSize - 1) / cfg.MinBlockSize); hashes != want || hashed != int64(n) {
				t.Errorf("%s n=%d: counted %d hashes over %d bytes, want %d over %d", family, n, hashes, hashed, want, n)
			}
			for b := cfg.initialBlockSize(n); b >= cfg.MinBlockSize; b /= 2 {
				if got, want := sig.PeekLevel(b), computeLevel(f, fam, b); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d b=%d: composed level differs from computeLevel", family, n, b)
				}
			}
			if hashes, hashed := buildLevels(sig, f, fam, &cfg); hashes != 0 || hashed != 0 {
				t.Errorf("%s n=%d: a complete signature was hashed again (%d hashes, %d bytes)", family, n, hashes, hashed)
			}
		}
	}
}

// TestPartialSignatureIsCompleted: a signature that already holds a coarse
// table (an entry written before levels were built together) keeps it and
// gains the others.
func TestPartialSignatureIsCompleted(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	f := corpus.RandomText(rng, 10_000)
	cfg := DefaultConfig()
	fam := cfg.hashFamily()
	sig := sigcache.NewSig(int64(len(f)), md4.Sum(f))
	coarse := sig.Level(1024, func() []uint64 { return computeLevel(f, fam, 1024) })
	buildLevels(sig, f, fam, &cfg)
	if got := sig.PeekLevel(1024); &got[0] != &coarse[0] {
		t.Error("the table the signature held was rebuilt")
	}
	for b := cfg.initialBlockSize(len(f)); b >= cfg.MinBlockSize; b /= 2 {
		if !reflect.DeepEqual(sig.PeekLevel(b), computeLevel(f, fam, b)) {
			t.Errorf("b=%d: level differs from computeLevel", b)
		}
	}
}
