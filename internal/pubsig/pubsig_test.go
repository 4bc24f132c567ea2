package pubsig

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"msync/internal/corpus"
	"msync/internal/md4"
	"msync/internal/rolling"
	"msync/internal/wire"
)

func TestQuickSyncReconstructs(t *testing.T) {
	f := func(seed int64, bsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bs := []int{128, 512, 1024, 4096}[bsRaw%4]
		old := corpus.SourceText(rng, rng.Intn(50_000))
		em := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 50, BurstSpread: 300}
		cur := em.Apply(rng, old)
		out, _, err := Sync(old, cur, bs)
		return err == nil && bytes.Equal(out, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cur := corpus.SourceText(rng, 1<<20)
	sig := Build(cur, DefaultBlockSize)
	// 8 bytes per 1024-byte block plus header: under 1% of the file.
	if len(sig) > len(cur)/100 {
		t.Fatalf("signature %d bytes for a %d-byte file", len(sig), len(cur))
	}
}

func TestPlanFetchesOnlyChangedRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	old := corpus.SourceText(rng, 400_000)
	cur := append([]byte(nil), old...)
	copy(cur[200_000:], []byte("THE EDITED REGION IS RIGHT HERE"))

	sig := Build(cur, DefaultBlockSize)
	plan, err := NewPlan(old, sig)
	if err != nil {
		t.Fatal(err)
	}
	if plan.FetchBytes() > 4*DefaultBlockSize {
		t.Fatalf("plan fetches %d bytes for a one-block edit", plan.FetchBytes())
	}
	if len(plan.Ranges) != 1 {
		t.Fatalf("expected one coalesced range, got %v", plan.Ranges)
	}
	fetched := 0
	out, err := plan.Reconstruct(old, func(off, l int) ([]byte, error) {
		fetched += l
		return cur[off : off+l], nil
	})
	if err != nil || !bytes.Equal(out, cur) {
		t.Fatalf("reconstruct: %v", err)
	}
	if fetched != plan.FetchBytes() {
		t.Fatalf("fetched %d != planned %d", fetched, plan.FetchBytes())
	}
	t.Logf("signature %d B + fetched %d B for a %d B file (%.2f%%)",
		len(sig), fetched, len(cur), 100*float64(len(sig)+fetched)/float64(len(cur)))
}

func TestShiftedContentStillMatches(t *testing.T) {
	// An insertion at the front shifts everything; the rolling scan must
	// still find the blocks at their new (old-file) offsets.
	rng := rand.New(rand.NewSource(3))
	cur := corpus.SourceText(rng, 100_000)
	old := append([]byte("PREFIX INSERTED AT CLIENT "), cur...)

	sig := Build(cur, DefaultBlockSize)
	plan, err := NewPlan(old, sig)
	if err != nil {
		t.Fatal(err)
	}
	// At most one block to fetch: every other block was found locally.
	if plan.FetchBytes() > DefaultBlockSize {
		t.Fatalf("fetching %d bytes for pure-shift content", plan.FetchBytes())
	}
}

func TestFetcherErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	old := corpus.SourceText(rng, 10_000)
	cur := corpus.SourceText(rng, 10_000)
	plan, err := NewPlan(old, Build(cur, 512))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("404")
	if _, err := plan.Reconstruct(old, func(off, l int) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Short reads are rejected.
	if _, err := plan.Reconstruct(old, func(off, l int) ([]byte, error) { return cur[off : off+l-1], nil }); err == nil {
		t.Fatal("short fetch accepted")
	}
}

func TestStaleSignatureDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	old := corpus.SourceText(rng, 20_000)
	cur := corpus.SourceText(rng, 20_000)
	newer := corpus.SourceText(rng, 20_000) // server content moved on
	plan, err := NewPlan(old, Build(cur, 512))
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.Reconstruct(old, func(off, l int) ([]byte, error) {
		if off+l > len(newer) {
			l = len(newer) - off
		}
		out := make([]byte, l)
		copy(out, newer[off:])
		return out, nil
	})
	if err == nil {
		t.Fatal("stale signature went undetected")
	}
}

func TestBadSignatures(t *testing.T) {
	sig := Build([]byte("some content for the signature"), 8)
	for cut := 0; cut < len(sig); cut += 3 {
		if _, err := NewPlan(nil, sig[:cut]); err == nil {
			t.Fatalf("truncated signature (cut %d) accepted", cut)
		}
	}
	if _, err := NewPlan(nil, append(sig, 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// forgeSignature builds a signature whose per-block hashes describe blocks,
// but whose whole-file hash is whole — modeling a weak-hash collision (all
// truncated block hashes agree, the file does not).
func forgeSignature(blocks []byte, bs int, whole [md4.Size]byte) []byte {
	b := wire.NewBuffer(64)
	b.Uvarint(uint64(len(blocks)))
	b.Uvarint(uint64(bs))
	b.Raw(whole[:])
	for off := 0; off < len(blocks); off += bs {
		end := off + bs
		if end > len(blocks) {
			end = len(blocks)
		}
		blk := blocks[off:end]
		var w [4]byte
		weak := rolling.AdlerSum(blk)
		w[0], w[1], w[2], w[3] = byte(weak), byte(weak>>8), byte(weak>>16), byte(weak>>24)
		b.Raw(w[:])
		sum := md4.Sum(blk)
		b.Raw(sum[:strongLen])
	}
	return b.Build()
}

// TestWholeFileHashBackstopsBlockCollisions: with 4-byte truncated block
// hashes, colliding blocks are possible; the whole-file hash must catch any
// reconstruction assembled from collided blocks. We simulate the collision
// directly: every block of A "matches", but the file-level hash is B's.
func TestWholeFileHashBackstopsBlockCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := corpus.SourceText(rng, 8_000)
	b := corpus.SourceText(rng, 8_000)

	sig := forgeSignature(a, 512, md4.Sum(b))
	plan, err := NewPlan(a, sig)
	if err != nil {
		t.Fatal(err)
	}
	if plan.FetchBytes() != 0 {
		t.Fatalf("collided blocks not matched locally: %d bytes to fetch", plan.FetchBytes())
	}
	_, err = plan.Reconstruct(a, func(off, l int) ([]byte, error) {
		t.Fatal("fetcher called for a fully-local plan")
		return nil, nil
	})
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("collision slipped through: err = %v", err)
	}

	// Sanity: the honest signature over the same blocks verifies.
	plan, err = NewPlan(a, forgeSignature(a, 512, md4.Sum(a)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Reconstruct(a, nil)
	if err != nil || !bytes.Equal(out, a) {
		t.Fatalf("honest signature rejected: %v", err)
	}
}

func TestSignatureRejectsOversizeHeader(t *testing.T) {
	// A declared file length over the 1<<40 bound must be refused before any
	// allocation is attempted.
	b := wire.NewBuffer(64)
	b.Uvarint(1 << 50)
	b.Uvarint(512)
	var whole [md4.Size]byte
	b.Raw(whole[:])
	if _, err := NewPlan(nil, b.Build()); err == nil {
		t.Fatal("absurd file length accepted")
	}
	// Zero block size likewise.
	b = wire.NewBuffer(64)
	b.Uvarint(100)
	b.Uvarint(0)
	b.Raw(whole[:])
	if _, err := NewPlan(nil, b.Build()); err == nil {
		t.Fatal("zero block size accepted")
	}
}

func TestEmptyFiles(t *testing.T) {
	out, down, err := Sync(nil, nil, 512)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty/empty: %v", err)
	}
	if down > 64 {
		t.Fatalf("empty sync cost %d", down)
	}
	out, _, err = Sync([]byte("had content"), nil, 512)
	if err != nil || len(out) != 0 {
		t.Fatalf("to-empty: %v", err)
	}
	cur := bytes.Repeat([]byte("z"), 3000)
	out, _, err = Sync(nil, cur, 512)
	if err != nil || !bytes.Equal(out, cur) {
		t.Fatalf("from-empty: %v", err)
	}
}
