package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"msync/internal/corpus"
	"msync/internal/gtest"
)

// TestConfigMatrix runs the full protocol over the cartesian product of the
// main technique toggles — every combination must reconstruct exactly.
func TestConfigMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	old := corpus.SourceText(rng, 60_000)
	em := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 50, BurstSpread: 300}
	cur := em.Apply(rng, old)

	for _, decomp := range []bool{true, false} {
		for _, contMin := range []int{0, 16} {
			for _, batches := range []int{1, 3} {
				name := fmt.Sprintf("poly/decomp=%v/cont=%d/batches=%d", decomp, contMin, batches)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Decomposable = decomp
					cfg.ContMinBlock = contMin
					cfg.Verify = gtest.Config{
						Batches: batches, GroupSize: 4, TrustedGroupSize: 8,
						SplitFactor: 2, RetryAlternates: 1,
					}
					res, err := SyncLocal(old, cur, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(res.Output, cur) {
						t.Fatal("reconstruction mismatch")
					}
					if res.Costs.Total() >= int64(len(cur)) {
						t.Fatalf("cost %d not below file size", res.Costs.Total())
					}
				})
			}
		}
	}
}

// TestEqualBlockBounds: MinBlockSize == MaxBlockSize degenerates to a
// single global round (plus continuation rounds if enabled).
func TestEqualBlockBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	old := corpus.SourceText(rng, 30_000)
	cur := corpus.EditModel{BurstsPer32KB: 3, BurstEdits: 3, EditSize: 40, BurstSpread: 200}.Apply(rng, old)

	cfg := DefaultConfig()
	cfg.MaxBlockSize = 512
	cfg.MinBlockSize = 512
	cfg.ContMinBlock = 64
	res, err := SyncLocal(old, cur, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, cur) {
		t.Fatal("mismatch")
	}
	if len(res.RoundDetails) == 0 || res.RoundDetails[0].BlockSize != 512 {
		t.Fatalf("unexpected rounds: %+v", res.RoundDetails)
	}
	// Later rounds must be continuation-only.
	for _, r := range res.RoundDetails[1:] {
		if r.Globals != 0 || r.TopUps != 0 {
			t.Fatalf("global hashes below MinBlockSize: %+v", r)
		}
	}
}

// TestOldLargerThanNew and vice versa: asymmetric sizes.
func TestAsymmetricSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	big := corpus.SourceText(rng, 100_000)
	small := big[20_000:30_000]
	for _, tc := range [][2][]byte{{big, small}, {small, big}} {
		res, err := SyncLocal(tc[0], tc[1], DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Output, tc[1]) {
			t.Fatal("mismatch")
		}
		// The content is shared, so the cost must be far below the target size.
		if res.Costs.Total() > int64(len(tc[1]))/2+2048 {
			t.Fatalf("cost %d too high for contained content (target %d)",
				res.Costs.Total(), len(tc[1]))
		}
	}
}

// TestVerifyHashProperties pins down the verification hash helper.
func TestVerifyHashProperties(t *testing.T) {
	a, b := []byte("part one"), []byte("part two")
	// Deterministic.
	if verifyHash(20, a, b) != verifyHash(20, a, b) {
		t.Fatal("nondeterministic")
	}
	// Part order matters (group tests concatenate in member order).
	if verifyHash(40, a, b) == verifyHash(40, b, a) {
		t.Fatal("order-insensitive")
	}
	// Truncation is a prefix relation on the low bits.
	full := verifyHash(64, a)
	if verifyHash(16, a) != full&0xFFFF {
		t.Fatal("truncation mismatch")
	}
	// Width respected.
	if verifyHash(8, a) > 0xFF {
		t.Fatal("width exceeded")
	}
}

// TestPresetProperties pins the exported presets' technique selections.
func TestPresetProperties(t *testing.T) {
	d := DefaultConfig()
	if d.ContMinBlock == 0 || !d.Decomposable || d.Verify.GroupSize < 2 || d.Verify.TrustedGroupSize < 2 {
		t.Fatalf("DefaultConfig lost techniques: %+v", d)
	}
	if p := PaperConfig(); p.ContMinBlock == 0 || !p.Decomposable || p.Verify.Batches < 2 {
		t.Fatalf("PaperConfig lost techniques: %+v", p)
	}
	b := BasicConfig()
	if b.ContMinBlock != 0 || b.Verify.GroupSize != 1 || b.Verify.Batches != 1 {
		t.Fatalf("BasicConfig not basic: %+v", b)
	}
	o := OneShotConfig(512)
	if o.MaxBlockSize != 512 || o.MinBlockSize != 512 {
		t.Fatalf("OneShotConfig block sizes: %+v", o)
	}
	if o.Validate() != nil || b.Validate() != nil || d.Validate() != nil {
		t.Fatal("preset failed validation")
	}
	if d.minScheduleBlock() != d.ContMinBlock {
		t.Fatal("minScheduleBlock with continuation")
	}
	if b.minScheduleBlock() != b.MinBlockSize {
		t.Fatal("minScheduleBlock without continuation")
	}
}

// TestAppendWorkload: pure appends are the friendliest case — cost must be
// close to the appended volume, far below rsync's per-block floor.
func TestAppendWorkload(t *testing.T) {
	v1, v2 := corpus.DefaultLogAppendProfile(0.2).Generate(5)
	m1 := v1.Map()
	var total, appended, cost int64
	for _, f := range v2.Files {
		old := m1[f.Path]
		res, err := SyncLocal(old, f.Data, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Output, f.Data) {
			t.Fatal("mismatch")
		}
		total += int64(len(f.Data))
		appended += int64(len(f.Data) - len(old))
		cost += res.Costs.Total()
	}
	t.Logf("append workload: %d bytes appended of %d total; sync cost %d (%.2fx of appended)",
		appended, total, cost, float64(cost)/float64(appended))
	if cost > appended {
		t.Fatalf("sync cost %d exceeds appended volume %d", cost, appended)
	}
}
