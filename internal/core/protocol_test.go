package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"msync/internal/corpus"
	"msync/internal/gtest"
)

// TestQuickProtocolReconstructs is the central correctness property: for
// arbitrary old/new pairs and all technique combinations, the protocol must
// reconstruct the new file exactly.
func TestQuickProtocolReconstructs(t *testing.T) {
	configs := map[string]Config{
		"default": DefaultConfig(),
		"basic":   BasicConfig(),
		"oneshot": OneShotConfig(256),
	}
	deep := DefaultConfig()
	deep.Verify = gtest.Config{Batches: 4, GroupSize: 8, TrustedGroupSize: 16, SplitFactor: 2, RetryAlternates: 2}
	configs["deep-verify"] = deep
	nodecomp := DefaultConfig()
	nodecomp.Decomposable = false
	configs["no-decomp"] = nodecomp

	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, kind uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				size := 1000 + rng.Intn(60_000)
				var old, cur []byte
				switch kind % 4 {
				case 0: // edited text
					old = corpus.SourceText(rng, size)
					em := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 50, BurstSpread: 400}
					cur = em.Apply(rng, old)
				case 1: // unrelated files
					old = corpus.SourceText(rng, size)
					cur = corpus.RandomText(rng, size/2+1)
				case 2: // heavy repetition (adversarial for candidate search)
					unit := corpus.SourceText(rng, 64)
					old = bytes.Repeat(unit, size/64+1)
					cur = append(bytes.Repeat(unit, size/128+1), corpus.SourceText(rng, 100)...)
				default: // pure random both sides
					old = corpus.RandomText(rng, size)
					cur = corpus.RandomText(rng, size)
				}
				res, err := SyncLocal(old, cur, cfg)
				if err != nil {
					t.Logf("seed %d kind %d: %v", seed, kind, err)
					return false
				}
				return bytes.Equal(res.Output, cur)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWeakVerifyFallsBack: with 2-bit verification hashes, false matches
// slip through; the whole-file check must catch them and the fallback must
// still deliver the correct file.
func TestWeakVerifyFallsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VerifyBits = 2
	cfg.SlackBits = 1
	cfg.MinHashBits = 10
	fellBack := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		old := corpus.SourceText(rng, 30_000)
		cur := corpus.SourceText(rng, 30_000)
		res, err := SyncLocal(old, cur, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Output, cur) {
			t.Fatal("fallback did not restore correctness")
		}
		if res.FellBack {
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Fatal("no seed fell back: the whole-file check went untested")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MaxBlockSize = 0 },
		func(c *Config) { c.MaxBlockSize = 1000 }, // not a power of two
		func(c *Config) { c.MinBlockSize = 0 },
		func(c *Config) { c.MinBlockSize = 48 },
		func(c *Config) { c.MinBlockSize = c.MaxBlockSize * 2 },
		func(c *Config) { c.ContMinBlock = -1 },
		func(c *Config) { c.ContMinBlock = 24 },
		func(c *Config) { c.ContMinBlock = 16; c.ContBits = 0 },
		func(c *Config) { c.VerifyBits = 0 },
		func(c *Config) { c.VerifyBits = 65 },
		func(c *Config) { c.MaxHashBits = 60 },
		func(c *Config) { c.MinHashBits = 0 },
		func(c *Config) { c.MinHashBits = c.MaxHashBits + 1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	for _, cfg := range []Config{DefaultConfig(), BasicConfig(), OneShotConfig(512)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good config rejected: %v", err)
		}
	}
}

func TestHashBitsSchedule(t *testing.T) {
	cfg := DefaultConfig()
	// Bits grow as blocks shrink.
	prev := uint(0)
	for _, b := range []int{2048, 1024, 512, 256, 128} {
		h := cfg.hashBits(1<<20, b)
		if h < prev {
			t.Fatalf("hashBits(%d) = %d decreased", b, h)
		}
		prev = h
	}
	// Clamps hold.
	if cfg.hashBits(1<<30, 1) != cfg.MaxHashBits {
		t.Fatal("max clamp")
	}
	if cfg.hashBits(2, 2048) != cfg.MinHashBits {
		t.Fatal("min clamp")
	}
}

func TestInitialBlockSize(t *testing.T) {
	cfg := DefaultConfig() // max 2048, min 128
	if got := cfg.initialBlockSize(1 << 20); got != 2048 {
		t.Fatalf("large file: %d", got)
	}
	if got := cfg.initialBlockSize(1000); got != 256 {
		t.Fatalf("1000-byte file: %d (want 256)", got)
	}
	if got := cfg.initialBlockSize(10); got != cfg.MinBlockSize {
		t.Fatalf("tiny file: %d", got)
	}
}

// TestCoverAndGaps exercises the interval algebra directly.
func TestCoverAndGaps(t *testing.T) {
	st := &state{n: 100}
	cfg := DefaultConfig()
	st.cfg = &cfg
	st.matches = []match{
		{serverOff: 10, length: 10},
		{serverOff: 20, length: 5}, // adjacent: merges
		{serverOff: 50, length: 10},
		{serverOff: 55, length: 10}, // overlapping: merges
	}
	cover := st.coverIntervals()
	want := []interval{{10, 25}, {50, 65}}
	if len(cover) != len(want) {
		t.Fatalf("cover = %v", cover)
	}
	for i := range want {
		if cover[i] != want[i] {
			t.Fatalf("cover[%d] = %v, want %v", i, cover[i], want[i])
		}
	}
	gaps := st.gaps()
	wantGaps := []interval{{0, 10}, {25, 50}, {65, 100}}
	for i := range wantGaps {
		if gaps[i] != wantGaps[i] {
			t.Fatalf("gaps[%d] = %v, want %v", i, gaps[i], wantGaps[i])
		}
	}
	if st.coveredBytes() != 30 {
		t.Fatalf("covered = %d", st.coveredBytes())
	}
	if !st.fullyCovered(12, 8) || st.fullyCovered(12, 20) || st.fullyCovered(0, 5) {
		t.Fatal("fullyCovered wrong")
	}
}

func TestMatchLookups(t *testing.T) {
	st := &state{n: 1000}
	cfg := DefaultConfig()
	st.cfg = &cfg
	st.matches = []match{
		{serverOff: 100, length: 50},
		{serverOff: 200, length: 50},
	}
	if st.matchEndingAt(150) != 0 || st.matchEndingAt(250) != 1 || st.matchEndingAt(999) != -1 {
		t.Fatal("matchEndingAt")
	}
	if st.matchStartingAt(100) != 0 || st.matchStartingAt(200) != 1 || st.matchStartingAt(1) != -1 {
		t.Fatal("matchStartingAt")
	}
}

func TestProtocolErrorPaths(t *testing.T) {
	cfg := DefaultConfig()
	srv, err := NewServerFile(make([]byte, 10_000), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reply before any round.
	if _, err := srv.AbsorbReply([]byte{0xFF}); err == nil {
		t.Fatal("reply without round accepted")
	}
	// Batch without pending verification.
	if _, err := srv.AbsorbBatch(nil); err == nil {
		t.Fatal("unexpected batch accepted")
	}

	cli, err := NewClientFile(make([]byte, 10_000), 10_000, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated hash payload.
	_ = srv.EmitHashes()
	if err := cli.AbsorbHashes([]byte{}); err == nil {
		t.Fatal("truncated hashes accepted")
	}
	// Confirm without awaiting.
	cli2, _ := NewClientFile(make([]byte, 10_000), 10_000, &cfg)
	if _, err := cli2.AbsorbConfirm(nil); err == nil {
		t.Fatal("unexpected confirm accepted")
	}
}

func TestTinyFileSkipsRounds(t *testing.T) {
	cfg := DefaultConfig()
	srv, err := NewServerFile([]byte("tiny"), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Active() {
		t.Fatal("tiny file should go straight to delta")
	}
	cli, err := NewClientFile([]byte("tony"), 4, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cli.ApplyDelta(srv.EmitDelta())
	if err != nil || string(out) != "tiny" {
		t.Fatalf("out=%q err=%v", out, err)
	}
}

// TestLargerFileManyRounds sanity-checks round counting and bit accounting.
func TestLargerFileManyRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	old := corpus.SourceText(rng, 500_000)
	em := corpus.EditModel{BurstsPer32KB: 1, BurstEdits: 3, EditSize: 60, BurstSpread: 500}
	cur := em.Apply(rng, old)
	res, err := SyncLocal(old, cur, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, cur) {
		t.Fatal("mismatch")
	}
	// 2048 → 128 global + 64,32,16 continuation = at least 8 rounds.
	if res.Rounds < 6 {
		t.Fatalf("only %d rounds", res.Rounds)
	}
	if res.Costs.HarvestRate() < 0.3 {
		t.Fatalf("harvest rate %.2f suspiciously low for a lightly-edited file",
			res.Costs.HarvestRate())
	}
	t.Logf("500k file: %d rounds, cost %d (%.2f%%), harvest %.2f",
		res.Rounds, res.Costs.Total(),
		100*float64(res.Costs.Total())/float64(len(cur)), res.Costs.HarvestRate())
}

// TestDecomposableSavesBits compares hash-payload traffic directly.
func TestDecomposableSavesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	old := corpus.SourceText(rng, 150_000)
	em := corpus.EditModel{BurstsPer32KB: 6, BurstEdits: 6, EditSize: 80, BurstSpread: 500}
	cur := em.Apply(rng, old)

	on := BasicConfig()
	off := BasicConfig()
	off.Decomposable = false
	resOn, err := SyncLocal(old, cur, on)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := SyncLocal(old, cur, off)
	if err != nil {
		t.Fatal(err)
	}
	if resOn.Costs.Total() >= resOff.Costs.Total() {
		t.Fatalf("decomposable on (%d) not cheaper than off (%d)",
			resOn.Costs.Total(), resOff.Costs.Total())
	}
	t.Logf("decomposable: %d vs %d bytes", resOn.Costs.Total(), resOff.Costs.Total())
}
