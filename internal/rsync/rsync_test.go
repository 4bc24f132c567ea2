package rsync

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"msync/internal/corpus"
	"msync/internal/delta"
	"msync/internal/md4"
)

// signMatchPatch runs the full pipeline without compression and checks
// reconstruction.
func signMatchPatch(old, cur []byte, blockSize, strongLen int) bool {
	sig := Sign(old, blockSize, strongLen)
	tokens := GenerateTokens(sig, cur)
	out, err := Patch(old, sig, tokens)
	return err == nil && bytes.Equal(out, cur)
}

func TestSignMatchPatchBasics(t *testing.T) {
	cases := []struct{ old, cur string }{
		{"", ""},
		{"", "new content entirely"},
		{"old content entirely", ""},
		{"identical", "identical"},
		{"aaaa bbbb cccc dddd", "aaaa XXXX cccc dddd"},
		{"prefix middle suffix", "prefix inserted middle suffix"},
	}
	for i, c := range cases {
		for _, bs := range []int{4, 7, 16} {
			if !signMatchPatch([]byte(c.old), []byte(c.cur), bs, 8) {
				t.Errorf("case %d bs %d failed", i, bs)
			}
		}
	}
}

func TestQuickSignMatchPatch(t *testing.T) {
	f := func(old, cur []byte, bsRaw uint8) bool {
		bs := int(bsRaw%64) + 1
		return signMatchPatch(old, cur, bs, 8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSyncSimilarFiles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		old := corpus.SourceText(rng, 5000+rng.Intn(20000))
		em := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 40, BurstSpread: 300}
		cur := em.Apply(rng, old)
		r := Sync(old, cur, DefaultBlockSize, DefaultStrongLen)
		return bytes.Equal(r.Output, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncCostBeatsFullTransfer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	old := corpus.SourceText(rng, 200_000)
	cur := append([]byte(nil), old...)
	copy(cur[100_000:], []byte("a single small edit"))
	r := Sync(old, cur, DefaultBlockSize, DefaultStrongLen)
	if !bytes.Equal(r.Output, cur) {
		t.Fatal("mismatch")
	}
	total := r.C2S + r.S2C
	if total > len(cur)/10 {
		t.Fatalf("rsync cost %d for tiny edit in %d-byte file", total, len(cur))
	}
	t.Logf("rsync: c2s %d, s2c %d (%.2f%% of file)", r.C2S, r.S2C,
		100*float64(total)/float64(len(cur)))
}

// TestTokenStreamIsMode2: Sync compresses its token stream, the stand-in for
// rsync's gzip pass, in delta mode 2, the coder sessions run; no older reader
// decodes it.
func TestTokenStreamIsMode2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	old := corpus.SourceText(rng, 60_000)
	cur := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 40, BurstSpread: 300}.Apply(rng, old)
	tokens := GenerateTokens(Sign(old, DefaultBlockSize, DefaultStrongLen), cur)
	enc, enc0 := delta.Mode2.Compress(tokens), delta.Mode0.Compress(tokens)
	if _, n := binary.Uvarint(enc); enc[n] != 2 || len(enc) == len(enc0) {
		t.Fatalf("the token stream is mode %d in %d bytes, %d in mode 0: not one mode 2 alone writes", enc[n], len(enc), len(enc0))
	}
	r := Sync(old, cur, DefaultBlockSize, DefaultStrongLen)
	if r.FellBack || !bytes.Equal(r.Output, cur) {
		t.Fatal("Sync did not reconstruct the file from its tokens")
	}
	if r.S2C != len(enc)+md4.Size {
		t.Fatalf("Sync sent %d bytes: mode 2's stream and sum are %d, mode 0's %d", r.S2C, len(enc)+md4.Size, len(enc0)+md4.Size)
	}
}

func TestTailBlockMatch(t *testing.T) {
	// A file whose length is not a multiple of the block size, unchanged
	// except at the front: the odd tail must still be matched.
	old := append(bytes.Repeat([]byte("0123456789abcdef"), 100), []byte("odd-tail")...)
	cur := append([]byte("PREFIX"), old...)
	sig := Sign(old, 64, 8)
	tokens := GenerateTokens(sig, cur)
	out, err := Patch(old, sig, tokens)
	if err != nil || !bytes.Equal(out, cur) {
		t.Fatalf("err=%v match=%v", err, bytes.Equal(out, cur))
	}
	// The tail must have been sent as a block reference, not literals:
	// token stream should be much smaller than the file.
	if len(tokens) > len(cur)/4 {
		t.Fatalf("token stream %d bytes suggests tail went literal", len(tokens))
	}
}

func TestWireSize(t *testing.T) {
	old := make([]byte, 7001)
	sig := Sign(old, 700, 2)
	// 10 full blocks plus a 1-byte tail: 11 * 6 + header.
	want := 10 + 11*6
	if sig.WireSize() != want {
		t.Fatalf("WireSize = %d, want %d", sig.WireSize(), want)
	}
}

func TestSyncFallbackOnCollision(t *testing.T) {
	// strongLen 1 plus adversarial weak-collisions can slip false blocks
	// through; the whole-file check must catch any mismatch and fall back.
	// Construct a guaranteed collision: two blocks with equal Adler and
	// equal 1-byte MD4 prefix would be needed; instead force the issue by
	// syncing with a signature computed from DIFFERENT data.
	rng := rand.New(rand.NewSource(3))
	old := corpus.SourceText(rng, 10_000)
	cur := corpus.SourceText(rng, 10_000)
	r := Sync(old, cur, 128, 1)
	if !bytes.Equal(r.Output, cur) {
		t.Fatal("fallback did not restore correctness")
	}
}

func TestSyncBestNotWorseThanDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	old := corpus.SourceText(rng, 60_000)
	em := corpus.EditModel{BurstsPer32KB: 1, BurstEdits: 3, EditSize: 30, BurstSpread: 200}
	cur := em.Apply(rng, old)
	def := Sync(old, cur, 700, DefaultStrongLen)
	best, bs := SyncBest(old, cur, DefaultStrongLen)
	if best.C2S+best.S2C > def.C2S+def.S2C {
		t.Fatalf("best (%d at bs=%d) worse than default (%d)",
			best.C2S+best.S2C, bs, def.C2S+def.S2C)
	}
	if !bytes.Equal(best.Output, cur) {
		t.Fatal("mismatch")
	}
}

func TestSignValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { Sign(nil, 0, 2) },
		func() { Sign(nil, 8, 0) },
		func() { Sign(nil, 8, 99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Sign args accepted")
				}
			}()
			fn()
		}()
	}
}

func TestPatchCorruptTokens(t *testing.T) {
	old := []byte("some old data here")
	sig := Sign(old, 4, 2)
	for _, bad := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, // overlong varint
		{0x05},             // block ref out of range
		{0x00, 0x10, 0x41}, // literal run longer than payload
		{0x00},             // missing literal length
	} {
		if _, err := Patch(old, sig, bad); err == nil {
			t.Errorf("corrupt tokens %v accepted", bad)
		}
	}
}

func BenchmarkSync256K(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	old := corpus.SourceText(rng, 256<<10)
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 50, BurstSpread: 300}
	cur := em.Apply(rng, old)
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sync(old, cur, DefaultBlockSize, DefaultStrongLen)
	}
}
